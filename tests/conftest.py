import pytest

from spinsum.algebra import BUILTIN_NAMES, builtin_by_name

ALL_BUILTINS = list(BUILTIN_NAMES)


@pytest.fixture(scope="session")
def algebras():
    return {name: builtin_by_name(name) for name in ALL_BUILTINS}


@pytest.fixture(scope="session")
def clifford(algebras):
    return algebras["clifford"]


@pytest.fixture(scope="session")
def m3(algebras):
    return algebras["twisted-matrix-3-f3"]


def glue_edge_signs(signs, glue_map, eps):
    """Transport edge signs through glue_boundaries_with_map output."""
    out = dict(signs)
    for a_eid, b_eid in glue_map.pairs:
        out[b_eid] = eps * signs[a_eid] * signs[b_eid]
        del out[a_eid]
    return out

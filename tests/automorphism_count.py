"""The automorphism count of GQ(2,4), run by name and kept out of the default
collection, because it takes one to two seconds:

    PYTHONPATH=src python -m pytest -q tests/automorphism_count.py
"""

from gqlab.quadrangle import build_matrix_quadrangle, collinearity_isomorphisms, verify_isomorphism


def test_matrix_model_has_51840_automorphisms():
    # Aut GQ(2,4) is O-(6,2), isomorphic to W(E6), of order 51840 (Payne and
    # Thas, Finite Generalized Quadrangles); counting with the generator
    # behind find_isomorphism shows that its search misses no map
    inc = build_matrix_quadrangle()
    count = 0
    for mapping in collinearity_isomorphisms(inc, inc):
        if count == 0:
            assert mapping == {p: p for p in inc.points}
        count += 1
    assert count == 51840
    ok, witness = verify_isomorphism(mapping, inc, inc)
    assert ok, witness

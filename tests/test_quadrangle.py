"""Tests for the GQ axioms, the models and isomorphism machinery."""

import random
import re
from collections import deque
from itertools import combinations, islice

import pytest

from gqlab.atlas import atlas, label_of
from gqlab.gf2 import SYM_IDENTITY, bits6, parse_bits6, sym_det
from gqlab.pg import (
    ALL_ONES,
    bit_indices,
    elliptic_quadric,
    from_minor_coordinates,
    lines_in,
    minor_coordinates,
    perp_hyperplane,
)
from gqlab.planes import build_plane_model
from gqlab.quadrangle import (
    DOUBLE_SIX_ISOMORPHISM,
    AxiomViolationError,
    HyperplaneSection,
    IncidenceStructure,
    SurveySummary,
    _gq_order,
    _search_plan,
    _sections,
    build_double_six_model,
    build_matrix_quadrangle,
    build_quadric_quadrangle,
    collinearity,
    collinearity_isomorphisms,
    collinearity_graph_edges,
    compile_structure,
    doily_substructure,
    find_isomorphism,
    hyperplane_section_survey,
    make_structure,
    pair_label,
    quadric_section,
    quadric_to_matrix_map,
    triangles,
    verify_gq_axioms,
    verify_isomorphism,
)
from gq_models import (
    MODEL_NAMES,
    NotInSError,
    collinear_matrices,
    four_models,
    grid_gq21,
    model,
    point_graph,
    point_swapped,
)


def test_grid_is_gq21():
    assert verify_gq_axioms(grid_gq21()) == (2, 1)


def test_doily_substructure_is_gq22():
    inc = doily_substructure()
    assert len(inc.points) == 15 and len(inc.lines) == 15
    assert verify_gq_axioms(inc) == (2, 2)


def test_double_six_model_is_gq24():
    inc = build_double_six_model()
    assert len(inc.points) == 27 and len(inc.lines) == 45
    assert verify_gq_axioms(inc) == (2, 4)


def test_double_six_lines_examples():
    inc = build_double_six_model()
    lines = set(inc.lines)
    assert tuple(sorted(("{1,2}", "{3,4}", "{5,6}"))) in lines
    assert tuple(sorted(("1", "{1,2}", "2'"))) in lines
    assert tuple(sorted(("1", "{2,3}", "4'"))) not in lines


def test_quadric_quadrangle_is_gq24():
    inc = build_quadric_quadrangle()
    assert len(inc.points) == 27 and len(inc.lines) == 45
    assert verify_gq_axioms(inc) == (2, 4)


def test_matrix_quadrangle_is_gq24():
    inc = build_matrix_quadrangle()
    assert len(inc.points) == 27 and len(inc.lines) == 45
    assert verify_gq_axioms(inc) == (2, 4)
    assert set(inc.points) == set(atlas().labels.values())


# References: the constructions the models were once built by, each from
# another model's lines.  The models now come from their own collinearity
# laws, through triangles, and must equal them.


def reference_matrix_model():
    """The translation preimages X = v + 1 of the 45 quadric lines."""

    def preimage(v):
        return label_of(from_minor_coordinates(v) ^ SYM_IDENTITY)

    lines = [tuple(map(preimage, line)) for line in lines_in(elliptic_quadric())]
    return make_structure("matrices", atlas().labels.values(), lines)


def reference_plane_model():
    """The reference matrix model relabelled by X -> the 6-bit string of X + 1."""
    relabel = {label_of(x): bits6(x ^ SYM_IDENTITY) for x in atlas().points}
    lines = [tuple(map(relabel.get, line)) for line in reference_matrix_model().lines]
    return make_structure("planes", relabel.values(), lines)


def perfect_matchings(elems):
    if not elems:
        return [()]
    first, rest = elems[0], elems[1:]
    return [
        ((first, partner),) + sub
        for k, partner in enumerate(rest)
        for sub in perfect_matchings(rest[:k] + rest[k + 1 :])
    ]


def reference_doily():
    """The 15 2-subsets of {1..6} with the 15 perfect matchings as lines."""
    points = [pair_label(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    lines = [
        tuple(pair_label(i, j) for i, j in matching)
        for matching in perfect_matchings(tuple(range(1, 7)))
    ]
    return make_structure("doily", points, lines)


@pytest.mark.parametrize(
    "build, reference",
    [
        (build_matrix_quadrangle, reference_matrix_model),
        (build_plane_model, reference_plane_model),
        (doily_substructure, reference_doily),
    ],
    ids=["matrices", "planes", "doily"],
)
def test_model_from_its_law_equals_its_reference(build, reference):
    inc = build()
    assert inc == reference()
    assert len(inc.lines) == (15 if inc.name == "doily" else 45)


def test_triangles_lists_each_triangle_once_in_ascending_order():
    # a 4-cycle 0-1-2-3 with the chord 0-2 and a pendant vertex 4 on 3
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)]
    adjacency = [0] * 5
    for a, b in edges:
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a
    assert list(triangles(adjacency, "abcde")) == [("a", "b", "c"), ("a", "c", "d")]
    assert list(triangles([0] * 64, range(64))) == []


def _reference_triangles(adjacency, labels):
    """Every triple a < b < c of mutually adjacent vertices, by brute force."""
    return [
        (labels[a], labels[b], labels[c])
        for a, b, c in combinations(range(len(adjacency)), 3)
        if adjacency[a] >> b & 1 and adjacency[a] >> c & 1 and adjacency[b] >> c & 1
    ]


def _random_graph(rng, n, density):
    adjacency = [0] * n
    for a, b in combinations(range(n), 2):
        if rng.random() < density:
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
    return adjacency


@pytest.mark.parametrize("n", [3, 9, 27, 64, 65, 80])
def test_triangles_match_the_brute_force_reference_on_random_graphs(n):
    rng = random.Random(n)
    for density in (0.1, 0.4, 0.8):
        adjacency = _random_graph(rng, n, density)
        labels = [f"v{i}" for i in range(n)]
        assert list(triangles(adjacency, labels)) == _reference_triangles(adjacency, labels)


def test_translation_map_is_isomorphism_onto_quadric_model():
    ok, witness = verify_isomorphism(
        quadric_to_matrix_map(), build_matrix_quadrangle(), build_quadric_quadrangle()
    )
    assert ok, witness


def test_each_point_collinear_with_ten():
    for build in (build_quadric_quadrangle, build_matrix_quadrangle, build_double_six_model):
        inc = build()
        adj = collinearity(inc)
        assert all(len(adj[p]) == 10 for p in inc.points)


def test_axiom_violation_reports_witness():
    # two lines through the same point pair
    bad = make_structure(
        "bad",
        ["a", "b", "c", "d"],
        [("a", "b", "c"), ("a", "b", "d")],
    )
    with pytest.raises(AxiomViolationError):
        verify_gq_axioms(bad)


def test_collinear_matrices_examples():
    u1, v2 = atlas().by_label["U1"], atlas().by_label["V2"]
    d1, u3 = atlas().by_label["D1"], atlas().by_label["U3"]
    assert collinear_matrices(u1, v2)  # det(U1+V2) = 0 inside the double six
    assert collinear_matrices(d1, u3)  # det(D1+U3) = 1 in the mixed case
    assert not collinear_matrices(d1, u1)  # det(D1+U1) = 0 in the mixed case


def test_collinear_matrices_rejects_non_points():
    # 0, the 35 nonzero singular matrices and the identity, in either
    # argument; when both are bad, the first one is named
    d1 = atlas().by_label["D1"]
    singular = [m for m in range(64) if sym_det(m) == 0]
    assert len(singular) == 36
    cases = [(m, f"matrix {m:06b} is singular") for m in singular]
    cases.append((SYM_IDENTITY, "the identity is not a quadrangle point"))
    cases += [((SYM_IDENTITY, 0), "the identity is not a quadrangle point")]
    cases += [((0, SYM_IDENTITY), "matrix 000000 is singular")]
    for bad, message in cases:
        for args in [bad] if isinstance(bad, tuple) else [(bad, d1), (d1, bad)]:
            with pytest.raises(NotInSError) as raised:
                collinear_matrices(*args)
            assert str(raised.value) == message


@pytest.mark.parametrize("x", [64 + atlas().by_label["U1"], -1], ids=["64+U1", "-1"])
def test_collinear_matrices_rejects_packed_matrices_outside_0_63(x):
    with pytest.raises(ValueError, match="0..63"):
        collinear_matrices(x, atlas().by_label["D1"])


def test_collinearity_agrees_with_lines():
    inc = build_matrix_quadrangle()
    adj = collinearity(inc)
    pts = atlas().points
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            assert collinear_matrices(x, y) == (label_of(y) in adj[label_of(x)])


def test_u_and_v_are_cocliques():
    at = atlas()
    for cls in (at.u, at.v):
        for i, x in enumerate(cls):
            for y in cls[i + 1 :]:
                assert not collinear_matrices(x, y)


def test_cross_class_collinearity_misses_skew_partner_only():
    # inside the double six, U_i is collinear with every V_j except V_i
    from gqlab.planes import skew_partner

    at = atlas()
    for x in at.u:
        partner = skew_partner(x)
        for y in at.v:
            assert collinear_matrices(x, y) == (y != partner)


def test_iso_table_is_isomorphism():
    ok, witness = verify_isomorphism(
        DOUBLE_SIX_ISOMORPHISM, build_matrix_quadrangle(), build_double_six_model()
    )
    assert ok, witness


def test_corrupted_iso_table_fails_with_witness():
    corrupted = dict(DOUBLE_SIX_ISOMORPHISM)
    corrupted["D1"], corrupted["D2"] = corrupted["D2"], corrupted["D1"]
    ok, witness = verify_isomorphism(
        corrupted, build_matrix_quadrangle(), build_double_six_model()
    )
    assert not ok
    assert "maps to non-line" in witness


def test_identity_map_is_automorphism():
    inc = build_matrix_quadrangle()
    ok, witness = verify_isomorphism({p: p for p in inc.points}, inc, inc)
    assert ok, witness


def test_find_isomorphism_between_models():
    found = find_isomorphism(build_matrix_quadrangle(), build_double_six_model())
    assert found is not None
    ok, witness = verify_isomorphism(found, build_matrix_quadrangle(), build_double_six_model())
    assert ok, witness


def test_find_isomorphism_deterministic():
    a = find_isomorphism(build_matrix_quadrangle(), build_quadric_quadrangle())
    b = find_isomorphism(build_matrix_quadrangle(), build_quadric_quadrangle())
    assert a == b and a is not None


def test_find_isomorphism_rejects_different_orders():
    assert find_isomorphism(doily_substructure(), build_double_six_model()) is None
    assert find_isomorphism(grid_gq21(), doily_substructure()) is None


# Independent oracles: they read only points and lines, never the package's
# collinearity or search code.


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_collinearity_graph_is_srg_27_10_1_5(name):
    # GQ(s,t) has an SRG((s+1)(st+1), s(t+1), s-1, t+1) collinearity graph
    # (Payne and Thas, Finite Generalized Quadrangles, 1.2)
    adj = point_graph(model(name))
    assert len(adj) == 27
    assert {len(near) for near in adj.values()} == {10}
    for p, q in combinations(adj, 2):
        common = len(adj[p] & adj[q])
        assert common == (1 if q in adj[p] else 5), (p, q)


def _nx_graph(nx, inc):
    """The point graph on the ints 0..n-1 in label order, edges added in
    sorted order.  VF2++ breaks ties by node order, and string nodes put in
    from sets come in hash order, which made its time on the point-swapped
    model below depend on PYTHONHASHSEED (0.01 s or about 30 s)."""
    adj = point_graph(inc)
    index = {p: i for i, p in enumerate(sorted(adj))}
    graph = nx.Graph()
    graph.add_nodes_from(range(len(index)))
    graph.add_edges_from(sorted((index[p], index[q]) for p in adj for q in adj[p]))
    return graph


def _nx_isomorphic(a, b):
    nx = pytest.importorskip("networkx")
    # VF2++: plain VF2 (nx.is_isomorphic) is thousands of times slower to
    # reject the point-swapped model below
    return nx.vf2pp_is_isomorphic(_nx_graph(nx, a), _nx_graph(nx, b))


# In a GQ the triangles of the collinearity graph are exactly its lines of
# size 3, so two GQs of order (2,4) are isomorphic iff their graphs are; for
# any structures, non-isomorphic graphs mean non-isomorphic structures.
MODEL_PAIRS = [(a, b, True) for a, b in combinations(MODEL_NAMES, 2)] + [
    ("matrices-swapped", "double-six", False),
]


@pytest.mark.parametrize(
    "a, b, isomorphic", MODEL_PAIRS, ids=[f"{a}-{b}" for a, b, _ in MODEL_PAIRS]
)
def test_find_isomorphism_agrees_with_networkx(a, b, isomorphic):
    a, b = model(a), model(b)
    assert _nx_isomorphic(a, b) is isomorphic
    assert (find_isomorphism(a, b) is not None) is isomorphic


def _reference_point_sets(inc):
    """The lines of inc as sets; ValueError, worded as compile_structure's,
    names the first line that names a point twice, else the first line that
    repeats an earlier one, found by position."""
    for line in inc.lines:
        if len(set(line)) != len(line):
            raise ValueError(f"line {line} names a point twice")
    sets = [set(line) for line in inc.lines]
    for k, line in enumerate(sets):
        for j in range(k):
            if sets[j] == line:
                raise ValueError(f"line {inc.lines[k]} repeats line {inc.lines[j]}")
    return sets


def _reference_collinearity(inc):
    """The label-level form of collinearity, kept as its oracle."""
    adj = {p: set() for p in inc.points}
    for line in _reference_point_sets(inc):
        for a in line:
            adj[a] |= line - {a}
    return {p: frozenset(near) for p, near in adj.items()}


def _reference_isomorphisms(a, b):
    """Every map of the label-level dict search that find_isomorphism
    replaced, kept as its oracle: breadth-first from the smallest label,
    candidate images in (degree, label) order, each tested for adjacency and
    non-adjacency against every point mapped before it."""
    if len(a.points) != len(b.points) or len(a.lines) != len(b.lines):
        return
    adj_a, adj_b = _reference_collinearity(a), _reference_collinearity(b)
    if sorted(len(s) for s in adj_a.values()) != sorted(len(s) for s in adj_b.values()):
        return
    remaining = set(a.points)
    order = []
    while remaining:
        queue = [min(remaining)]
        remaining.discard(queue[0])
        while queue:
            p = queue.pop(0)
            order.append(p)
            for n in sorted(adj_a[p]):
                if n in remaining:
                    remaining.discard(n)
                    queue.append(n)
    candidates = sorted(b.points, key=lambda p: (len(adj_b[p]), p))
    mapping = {}
    used = set()

    def feasible(p, q):
        near_p, near_q = adj_a[p], adj_b[q]
        if len(near_p) != len(near_q):
            return False
        for r, s in mapping.items():
            if (r in near_p) != (s in near_q):
                return False
        return True

    def backtrack(i):
        if i == len(order):
            yield dict(mapping)
            return
        p = order[i]
        for q in candidates:
            if q in used or not feasible(p, q):
                continue
            mapping[p] = q
            used.add(q)
            yield from backtrack(i + 1)
            del mapping[p]
            used.discard(q)

    yield from backtrack(0)


def _reference_find_isomorphism(a, b):
    """The first map of the reference search, if it sends lines onto lines."""
    mapping = next(_reference_isomorphisms(a, b), None)
    if mapping is None:
        return None
    ok, _ = verify_isomorphism(mapping, a, b)
    return mapping if ok else None


def test_find_isomorphism_matches_reference_search():
    pairs = list(combinations(four_models(), 2))
    pairs.append((quadric_section(ALL_ONES), doily_substructure()))
    for a, b in pairs:
        found = find_isomorphism(a, b)
        assert found is not None
        # the same map, with the points of a in the same search order
        assert list(found.items()) == list(_reference_find_isomorphism(a, b).items())
    negatives = [
        (point_swapped(build_matrix_quadrangle()), build_double_six_model()),
        (doily_substructure(), build_double_six_model()),
        (grid_gq21(), doily_substructure()),
    ]
    for a, b in negatives:
        assert find_isomorphism(a, b) is None
        assert _reference_find_isomorphism(a, b) is None


class _CountingRows(tuple):
    """A tuple of adjacency rows that counts the rows read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def _double_six_plant():
    """The double-six model with the first points of lines 8 and 18 traded:
    every degree stays 10, but it is not a GQ."""
    inc = build_double_six_model()
    lines = list(inc.lines)
    lines[8], lines[18] = lines[18][:1] + lines[8][1:], lines[8][:1] + lines[18][1:]
    return IncidenceStructure("double-six-plant", inc.points, tuple(lines))


@pytest.mark.parametrize(
    "a, b",
    list(combinations(MODEL_NAMES, 2)),
    ids=[f"{a}-{b}" for a, b in combinations(MODEL_NAMES, 2)],
)
def test_search_reads_few_rows_of_the_target_before_its_first_map(monkeypatch, a, b):
    # a tried image collinear with the image of a point it must not be
    # collinear with is cut at once, not many levels later; the search
    # compiles a, then its target b, whose rows are counted
    a, b = model(a), model(b)
    compiled = []

    def counting(inc):
        c = compile_structure(inc)
        compiled.append(c._replace(adjacency=_CountingRows(c.adjacency)) if compiled else c)
        return compiled[-1]

    monkeypatch.setattr("gqlab.quadrangle.compile_structure", counting)
    first = next(collinearity_isomorphisms(a, b))
    assert len(compiled) == 2
    assert 0 < compiled[1].adjacency.reads <= 200
    assert list(first.items()) == list(_reference_find_isomorphism(a, b).items())


def test_search_finds_no_map_onto_the_planted_double_six():
    plant = _double_six_plant()
    assert sorted(compile_structure(plant).degrees) == [10] * 27
    for model in (build_quadric_quadrangle(), build_matrix_quadrangle(), build_plane_model()):
        assert next(collinearity_isomorphisms(model, plant), None) is None


def _reference_verify_isomorphism(mapping, a, b):
    """verify_isomorphism's label scan without its point-count check, kept as
    its oracle: the two differ only on a map that folds two points onto one."""
    if set(mapping) != set(a.points):
        return False, "mapping domain differs from the point set"
    if set(mapping.values()) != set(b.points):
        return False, "mapping image differs from the target point set"
    if len(a.lines) != len(b.lines):
        return False, f"line counts differ: {len(a.lines)} vs {len(b.lines)}"
    b_lines = {tuple(sorted(line)) for line in b.lines}
    for line in a.lines:
        image = tuple(sorted(mapping[p] for p in line))
        if image not in b_lines:
            return False, f"line {line} maps to non-line {image}"
    return True, ""


def test_verify_isomorphism_matches_the_label_scan():
    matrices, double_six = build_matrix_quadrangle(), build_double_six_model()
    iso = DOUBLE_SIX_ISOMORPHISM
    cases = [(iso, matrices, double_six)]
    rng = random.Random(0)
    for _ in range(200):
        x, y = rng.sample(sorted(iso), 2)
        cases.append(({**iso, x: iso[y], y: iso[x]}, matrices, double_six))
    dropped = {p: q for p, q in iso.items() if p != "D1"}
    for mapping in (dropped, {**iso, "W1": "1"}, {**iso, "D1": "7"}, {**iso, "D1": iso["D2"]}):
        cases.append((mapping, matrices, double_six))
    cases.append((iso, matrices, double_six._replace(lines=double_six.lines[:-1])))
    cases.append((iso, matrices._replace(lines=matrices.lines[1:]), double_six))
    # hand-built structures that compile_structure would reject, which the
    # scan still answers: a line that names a point twice, a line that names
    # a point off the point set, and lines held in lists
    abc = ("a", "b", "c")
    twice = IncidenceStructure("twice", abc, (abc, ("a", "c", "c")))
    unknown = IncidenceStructure("unknown", abc, (abc, ("a", "z")))
    listed = IncidenceStructure("listed", abc, (list(abc), ["a", "c"]))
    plain = make_structure("plain", abc, [abc, ("a", "c")])
    identity = {p: p for p in abc}
    for a, b in ((twice, twice), (twice, plain), (plain, twice), (plain, unknown), (listed, plain)):
        cases.append((identity, a, b))
    # the doily with every line written in reverse: its lines are read as written
    doily = doily_substructure()
    reversed_lines = tuple(line[::-1] for line in doily.lines)
    rev = IncidenceStructure("rev", doily.points, reversed_lines)
    cases.append(({p: p for p in doily.points}, doily, rev))
    outcomes = []
    for mapping, a, b in cases:
        outcomes.append(verify_isomorphism(mapping, a, b))
        assert outcomes[-1] == _reference_verify_isomorphism(mapping, a, b)
    assert outcomes[0] == (True, "")
    assert all(not ok and "maps to non-line" in witness for ok, witness in outcomes[1:201])
    assert [ok for ok, _ in outcomes[201:-6]] == [False] * 6
    assert [ok for ok, _ in outcomes[-6:]] == [True, False, False, False, True, True]


def test_verify_isomorphism_rejects_a_map_that_is_not_injective():
    # c and d share an image, and no line of a holds both
    a = make_structure("four", "abcd", [("a", "b")])
    b = make_structure("three", "xyz", [("x", "y")])
    mapping = {"a": "x", "b": "y", "c": "z", "d": "z"}
    assert verify_isomorphism(mapping, a, b) == (False, "point counts differ: 4 vs 3")
    assert _reference_verify_isomorphism(mapping, a, b) == (True, "")


# (a, b, how many maps to compare, how many the search yields up to that)
SEQUENCE_CASES = [
    ("doily", "doily", None, 720),
    ("section-111111", "doily", None, 720),
    ("grid", "grid", None, 72),
] + [(a, b, 500, 500) for a, b in combinations(MODEL_NAMES, 2)]


@pytest.mark.parametrize(
    "a, b, limit, count", SEQUENCE_CASES, ids=[f"{a}-{b}" for a, b, _, _ in SEQUENCE_CASES]
)
def test_collinearity_isomorphisms_match_the_reference_sequence(a, b, limit, count):
    # the same maps in the same order, each with the points of a in the same
    # search order, whatever the search prunes on
    a, b = model(a), model(b)
    found = [list(m.items()) for m in islice(collinearity_isomorphisms(a, b), limit)]
    wanted = [list(m.items()) for m in islice(_reference_isomorphisms(a, b), limit)]
    assert len(found) == count
    assert found == wanted


def _reference_search_plan(c):
    """The search plan by a plain breadth-first walk over neighbour sets,
    from the smallest unplaced point with each point's unseen neighbours
    queued in ascending order, and one comprehension over earlier positions;
    kept as the oracle of _search_plan's one pass."""
    n = len(c.labels)
    near = [{j for j in range(n) if c.adjacency[i] >> j & 1} for i in range(n)]
    order, seen = [], set()
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        while queue:
            p = queue.popleft()
            order.append(p)
            for q in sorted(near[p] - seen):
                seen.add(q)
                queue.append(q)
    earlier = tuple(
        tuple(j for j in range(k) if order[j] in near[p]) for k, p in enumerate(order)
    )
    return tuple(order), earlier


def _random_structure(rng, n, n_lines):
    """n points and up to n_lines distinct lines of 2 to 4 distinct points."""
    points = [f"p{i:03d}" for i in range(n)]
    lines = {tuple(sorted(rng.sample(points, rng.randint(2, 4)))) for _ in range(n_lines)}
    return make_structure(f"random-{n}", points, lines)


def test_search_plan_matches_the_reference_plan():
    rng = random.Random(7)
    structures = four_models() + [doily_substructure(), grid_gq21()]
    for n, n_lines in ((5, 2), (20, 12), (40, 60), (80, 30), (90, 200)):
        structures.append(_random_structure(rng, n, n_lines))
    assert max(len(inc.points) for inc in structures) > 64
    for inc in structures:
        c = compile_structure(inc)
        assert _search_plan(c) == _reference_search_plan(c), inc.name


def test_a_structure_written_unsorted_compiles_in_label_order():
    doily = doily_substructure()
    points = tuple(reversed(doily.points))
    unsorted = IncidenceStructure("doily-unsorted", points, tuple(reversed(doily.lines)))
    assert compile_structure(unsorted).labels == tuple(sorted(points))
    copy = make_structure("doily-copy", points, unsorted.lines)
    section = quadric_section(ALL_ONES)
    first = next(collinearity_isomorphisms(unsorted, section))
    assert list(first.items()) == list(next(collinearity_isomorphisms(copy, section)).items())
    first = next(collinearity_isomorphisms(section, unsorted))
    assert list(first.items()) == list(next(collinearity_isomorphisms(section, copy)).items())


def test_find_isomorphism_reads_the_target_lines_as_written():
    doily = doily_substructure()
    rev = IncidenceStructure("rev", doily.points, tuple(line[::-1] for line in doily.lines))
    assert find_isomorphism(doily, rev) == find_isomorphism(doily, doily)


def test_degree_guard_rejects_collinearity_embeddings():
    # equal point and line counts, and a's collinear pairs embed in b's, so a
    # search that only keeps collinearity would map a into b; the sorted
    # degrees (1, 1, 1, 1) against (1, 2, 2, 3) rule it out
    a = make_structure("two-pairs", "abcd", [("a", "b"), ("c", "d")])
    b = make_structure("triangle-tail", "abcd", [("a", "b", "c"), ("c", "d")])
    assert list(collinearity_isomorphisms(a, b)) == []
    assert find_isomorphism(a, b) is None


def test_point_swapped_model_passes_the_degree_filter():
    swapped = point_swapped(build_matrix_quadrangle())
    assert len(swapped.lines) == 45
    assert {len(near) for near in point_graph(swapped).values()} == {10}
    with pytest.raises(AxiomViolationError):
        verify_gq_axioms(swapped)


def test_hyperplane_survey_counts():
    survey = hyperplane_section_survey()
    assert survey.nondegenerate == 36
    assert survey.tangent == 27
    assert survey.all_gq22_pass
    for section in survey.sections:
        if section.kind == "gq22":
            assert (section.n_points, section.n_lines) == (15, 15)
        else:
            # tangent cone: the point itself plus 5 lines of 2 further points
            assert (section.n_points, section.n_lines) == (11, 5)


def test_identity_section_is_translated_d():
    at = atlas()
    section = quadric_section(ALL_ONES)
    wanted = {bits6(minor_coordinates(x ^ SYM_IDENTITY)) for x in at.d}
    assert set(section.points) == wanted
    assert verify_gq_axioms(section) == (2, 2)


def test_identity_section_isomorphic_to_doily():
    assert find_isomorphism(quadric_section(ALL_ONES), doily_substructure()) is not None


def test_collinearity_graph_edge_count():
    edges = collinearity_graph_edges()
    assert len(edges) == 135  # 27 * 10 / 2


def test_collinearity_graph_edges_match_collinearity():
    inc = build_matrix_quadrangle()
    adj = collinearity(inc)
    edges = {tuple(sorted((p, q))) for p in inc.points for q in adj[p]}
    assert len(edges) == 135
    assert collinearity_graph_edges() == tuple(sorted(edges))


@pytest.mark.parametrize(
    "build",
    [build_quadric_quadrangle, build_matrix_quadrangle, build_double_six_model, build_plane_model],
)
def test_compiled_degrees_match_collinearity(build):
    inc = build()
    adj = collinearity(inc)
    assert compile_structure(inc).degrees == tuple(len(adj[p]) for p in inc.points)


def test_d_partners_structure():
    # every D point has 2 U partners and 2 V partners pairing under the skew
    # partnership, and 6 partners inside D
    from gqlab.planes import skew_partner

    at = atlas()
    inc = build_matrix_quadrangle()
    adj = collinearity(inc)
    u_labels = {label_of(x) for x in at.u}
    v_labels = {label_of(x) for x in at.v}
    d_labels = {label_of(x) for x in at.d}
    for y in at.d:
        near = adj[label_of(y)]
        from_u = near & u_labels
        from_v = near & v_labels
        assert len(from_u) == 2 and len(from_v) == 2
        assert {label_of(skew_partner(atlas().by_label[lab])) for lab in from_u} == from_v
        assert len(near & d_labels) == 6


def test_pair_label_canonical():
    assert pair_label(5, 3) == "{3,5}"
    assert pair_label(1, 2) == "{1,2}"


def test_make_structure_rejects_bad_input():
    with pytest.raises(ValueError):
        make_structure("x", ["a"], [("a", "b")])
    with pytest.raises(ValueError):
        make_structure("x", ["a", "a"], [])


def test_compile_structure_rejects_a_line_naming_a_point_twice():
    sorted_repeat = IncidenceStructure("x", ("a", "b", "c"), (("a", "b", "c"), ("a", "c", "c")))
    as_written = IncidenceStructure("x", ("a", "b", "c"), (("a", "b", "c"), ("c", "a", "c")))
    abc = ("a", "b", "c")
    # a line repeated as written (the same tuple object), reversed and rotated
    repeats = [
        IncidenceStructure("x", ("a", "b", "c", "d"), (abc, ("a", "d"), again))
        for again in (abc, abc[::-1], abc[1:] + abc[:1])
    ]
    assert repeats[0].lines[2] is abc
    cases = [(sorted_repeat, "line ('a', 'c', 'c') names a point twice")]
    cases.append((as_written, "line ('c', 'a', 'c') names a point twice"))
    cases += [(inc, f"line {inc.lines[2]} repeats line {abc}") for inc in repeats]
    for inc, message in cases:
        assert _axiom_outcome(_reference_point_sets, inc) == ("rejected", message)
        # make_structure names the offender as it canonicalized it
        canonical = inc._replace(lines=tuple(sorted(tuple(sorted(line)) for line in inc.lines)))
        _, made = _axiom_outcome(_reference_point_sets, canonical)
        readers = [(read, message) for read in (compile_structure, verify_gq_axioms, collinearity)]
        for read, wanted in readers + [(lambda inc: make_structure(*inc), made)]:
            with pytest.raises(ValueError, match=re.escape(wanted)) as caught:
                read(inc)
            assert not isinstance(caught.value, AxiomViolationError)


# one input per well-formedness rule, each already canonical, so that
# make_structure passes it to compile_structure as written; each holds two
# offenders, and the first is named
MALFORMED_STRUCTURES = {
    "label-twice": (
        ("a", "a", "b", "b"),
        (("a", "b"),),
        "point label 'a' is given twice",
    ),
    "unknown-label": (
        ("a", "b", "c"),
        (("a", "b"), ("a", "y"), ("a", "z")),
        "line ('a', 'y') names unknown point 'y'",
    ),
    "point-twice": (
        ("a", "b", "c"),
        (("a", "b"), ("a", "c", "c"), ("b", "b")),
        "line ('a', 'c', 'c') names a point twice",
    ),
    "line-repeated": (
        ("a", "b", "c"),
        (("a", "b"), ("a", "b"), ("b", "c"), ("b", "c")),
        "line ('a', 'b') repeats line ('a', 'b')",
    ),
}


@pytest.mark.parametrize("fault", MALFORMED_STRUCTURES)
def test_every_reader_rejects_a_malformed_structure_with_a_plain_value_error(fault):
    points, lines, message = MALFORMED_STRUCTURES[fault]
    inc = IncidenceStructure("x", points, lines)
    for read in (compile_structure, verify_gq_axioms, lambda inc: make_structure(*inc)):
        with pytest.raises(Exception) as caught:
            read(inc)
        assert type(caught.value) is ValueError and str(caught.value) == message


def test_verify_gq_axioms_names_an_empty_structure():
    with pytest.raises(AxiomViolationError) as caught:
        verify_gq_axioms(make_structure("empty", [], []))
    assert (caught.value.axiom, caught.value.witness) == ("nonempty", "empty")


def test_triangles_rejects_a_negative_adjacency_row():
    with pytest.raises(ValueError, match=re.escape("adjacency row 0 is negative: -1")):
        list(triangles([-1], ["a"]))


def test_collinearity_isomorphisms_of_the_empty_structure_is_the_empty_map():
    # the empty search plan yields one empty map, and the search then ends
    empty = make_structure("empty", [], [])
    assert list(collinearity_isomorphisms(empty, empty)) == [{}]


def _reference_verify_gq_axioms(inc):
    """The element-by-element loop form of verify_gq_axioms, kept as its oracle."""
    _reference_point_sets(inc)
    if not inc.points or not inc.lines:
        raise AxiomViolationError("nonempty", inc.name)
    sizes = {len(line) for line in inc.lines}
    if len(sizes) != 1:
        raise AxiomViolationError("uniform line size", f"sizes {sorted(sizes)}")
    s = sizes.pop() - 1

    on_lines = {p: [] for p in inc.points}
    for line in inc.lines:
        for p in line:
            on_lines[p].append(line)
    degrees = {len(ls) for ls in on_lines.values()}
    if len(degrees) != 1:
        raise AxiomViolationError("uniform point degree", f"degrees {sorted(degrees)}")
    t = degrees.pop() - 1

    adj = _reference_collinearity(inc)
    for p in inc.points:
        for line in inc.lines:
            if p in line:
                continue
            hits = sum(1 for q in line if q in adj[p])
            if hits != 1:
                raise AxiomViolationError(
                    "unique perpendicular", f"point {p}, line {line}, {hits} connections"
                )
    return (s, t)


def _axiom_outcome(verify, inc):
    """verify(inc), its (axiom, witness), or ("rejected", message) when inc
    has a line that names a point twice or repeats a line."""
    try:
        return verify(inc)
    except AxiomViolationError as exc:
        return (exc.axiom, exc.witness)
    except ValueError as exc:
        return ("rejected", str(exc))


def _replace_lines(inc, replacements, first=()):
    """inc with the lines in replacements swapped for their values; the
    lines in first go in front.  Built directly, so lines stay as written."""
    lines = list(first) + [replacements.get(line, line) for line in inc.lines]
    return IncidenceStructure(inc.name, inc.points, tuple(line for line in lines if line))


def test_bitset_axioms_match_reference_on_models_and_sections():
    from gqlab.planes import build_plane_model

    structures = [
        build_quadric_quadrangle(),
        build_matrix_quadrangle(),
        build_double_six_model(),
        build_plane_model(),
        doily_substructure(),
        grid_gq21(),
    ]
    structures += [
        quadric_section(axis) for axis in range(1, 64) if not elliptic_quadric() >> axis & 1
    ]
    assert len(structures) == 6 + 36
    for inc in structures:
        assert verify_gq_axioms(inc) == _reference_verify_gq_axioms(inc)
        assert collinearity(inc) == _reference_collinearity(inc)


def _point_moved_mutant():
    # swap the last point of the first line with the first point of the
    # first line skew to it
    inc = build_quadric_quadrangle()
    l1 = inc.lines[0]
    l2 = next(line for line in inc.lines if not set(line) & set(l1))
    moved = {l1: l1[:2] + l2[:1], l2: l1[2:] + l2[1:]}
    return make_structure("moved", inc.points, [moved.get(line, line) for line in inc.lines])


def _grid_mutant(c0, c1):
    # p01 and p10 trade places between the first two columns
    grid = grid_gq21()
    return _replace_lines(grid, {("p00", "p10", "p20"): c0, ("p01", "p11", "p21"): c1})


def _doily_repeat_mutant():
    # a line naming {3,4} twice; {2,6} takes its place on another line so
    # that every degree stays 3
    doily = doily_substructure()
    return _replace_lines(
        doily,
        {("{1,5}", "{2,6}", "{3,4}"): (), ("{1,6}", "{2,5}", "{3,4}"): ("{1,6}", "{2,5}", "{2,6}")},
        first=[("{3,4}", "{1,5}", "{3,4}")],
    )


def _dropped_line_mutant():
    inc = build_quadric_quadrangle()
    return _replace_lines(inc, {inc.lines[0]: ()})


AXIOM_MUTANTS = {
    "dropped line": (_dropped_line_mutant, "uniform point degree"),
    "point moved between two lines": (_point_moved_mutant, "unique perpendicular"),
    "line repeating a joined pair": (
        lambda: _grid_mutant(("p00", "p01", "p20"), ("p10", "p11", "p21")),
        "unique perpendicular",
    ),
    "two unsorted lines sharing two points": (
        lambda: _grid_mutant(("p01", "p00", "p20"), ("p11", "p10", "p21")),
        "unique perpendicular",
    ),
    "line of a different size": (
        lambda: _replace_lines(grid_gq21(), {("p00", "p01", "p02"): ("p00", "p01", "p02", "p22")}),
        "uniform line size",
    ),
    "line naming a point twice": (_doily_repeat_mutant, "rejected"),
    # every two lines share two points, and no point off a line misses it
    "all four triples of four points": (
        lambda: make_structure("triples", "abcd", combinations("abcd", 3)),
        "unique perpendicular",
    ),
}


def _repeated_lines(inc, reverse, every):
    """inc with its first line, or every line, named a second time at the
    end, as written or reversed.  Built directly, so repeats stay."""
    repeats = inc.lines if every else inc.lines[:1]
    return IncidenceStructure(
        inc.name, inc.points, inc.lines + tuple(line[::-1] if reverse else line for line in repeats)
    )


# with every line repeated, every point keeps one degree and every
# perpendicular count, so only the rejection of a repeated line tells the
# structure from its base
@pytest.mark.parametrize(
    "reverse, every", [(False, False), (True, False), (True, True), (False, True)]
)
def test_repeated_lines_give_the_reference_axiom_and_witness(reverse, every):
    for base in (grid_gq21(), doily_substructure(), build_quadric_quadrangle()):
        inc = _repeated_lines(base, reverse, every)
        outcome = _axiom_outcome(verify_gq_axioms, inc)
        assert outcome == _axiom_outcome(_reference_verify_gq_axioms, inc)
        assert outcome[0] == "rejected"


@pytest.mark.parametrize("name", sorted(AXIOM_MUTANTS))
def test_bitset_axioms_match_reference_on_mutants(name):
    build, axiom = AXIOM_MUTANTS[name]
    inc = build()
    outcome = _axiom_outcome(verify_gq_axioms, inc)
    assert outcome == _axiom_outcome(_reference_verify_gq_axioms, inc)
    assert outcome[0] == axiom


def _lines_sharing_two_points(lines):
    """The pairs (j, k), j < k, of the given point masks that share two points."""
    return [
        (j, k) for (j, a), (k, b) in combinations(enumerate(lines), 2) if (a & b).bit_count() > 1
    ]


def test_bitset_axioms_match_reference_on_random_swaps():
    # swapping points between lines keeps every line size and point degree;
    # it may unsort a line, and it may repeat a point within a line or make
    # two lines share two points, which both sides reject
    rng = random.Random(20101)
    bases = [grid_gq21(), doily_substructure(), build_quadric_quadrangle()]
    shared = 0  # structures that compile with two lines sharing two points
    for _ in range(300):
        base = rng.choice(bases)
        lines = [list(line) for line in base.lines]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(len(lines)), 2)
            a, b = rng.randrange(len(lines[i])), rng.randrange(len(lines[j]))
            lines[i][a], lines[j][b] = lines[j][b], lines[i][a]
        if rng.random() < 0.5:
            for line in lines:
                rng.shuffle(line)
        inc = IncidenceStructure("swapped", base.points, tuple(map(tuple, lines)))
        outcome = _axiom_outcome(verify_gq_axioms, inc)
        assert outcome == _axiom_outcome(_reference_verify_gq_axioms, inc)
        assert _axiom_outcome(collinearity, inc) == _axiom_outcome(_reference_collinearity, inc)
        # independently of the reference: two lines that share two points
        # are never accepted
        index = {p: i for i, p in enumerate(inc.points)}
        if _lines_sharing_two_points([sum(1 << index[p] for p in line) for line in lines]):
            assert isinstance(outcome[0], str)
            shared += outcome[0] != "rejected"
    assert shared


def _reference_section(axis):
    """quadric_section as it was first built: the quadric points in the
    perpendicular hyperplane, and every PG(5,2) line inside them."""
    pts = elliptic_quadric() & perp_hyperplane(axis)
    lines = [tuple(bits6(v) for v in line) for line in lines_in(pts)]
    return make_structure(f"section-{bits6(axis)}", (bits6(v) for v in bit_indices(pts)), lines)


def _reference_survey():
    quad = elliptic_quadric()
    sections = []
    all_pass = True
    for axis in range(1, 64):
        section = _reference_section(axis)
        n_points, n_lines = len(section.points), len(section.lines)
        if quad >> axis & 1:
            sections.append(HyperplaneSection(bits6(axis), "tangent", n_points, n_lines))
            continue
        try:
            order = _reference_verify_gq_axioms(section)
        except AxiomViolationError:
            order = None
        if order != (2, 2) or n_points != 15 or n_lines != 15:
            all_pass = False
        sections.append(HyperplaneSection(bits6(axis), "gq22", n_points, n_lines))
    tangent = sum(1 for section in sections if section.kind == "tangent")
    return SurveySummary(tangent, len(sections) - tangent, tuple(sections), all_pass)


def test_hyperplane_survey_matches_reference():
    assert hyperplane_section_survey()._asdict() == _reference_survey()._asdict()


def test_quadric_section_matches_reference():
    for axis in range(1, 64):
        assert quadric_section(axis) == _reference_section(axis)
    for axis in (0, -1, 64, 1 << 70):
        with pytest.raises(ValueError, match="1..63"):
            quadric_section(axis)


def _reference_sections(axes):
    """_sections as a walk per axis: a quadric line is kept unless a quadric
    point off the section lies on it."""
    quad = elliptic_quadric()
    c = compile_structure(build_quadric_quadrangle())
    vectors = [parse_bits6(label) for label in c.labels]
    through = [0] * 64  # bit j of through[v]: c.lines[j] holds the vector v
    for j, line in enumerate(c.lines):
        for i in line:
            through[vectors[i]] |= 1 << j
    every = (1 << len(c.lines)) - 1
    for axis in axes:
        inside = quad & perp_hyperplane(axis)
        hit = 0
        for v in bit_indices(quad & ~inside):
            hit |= through[v]
        held = sum(1 << i for i, v in enumerate(vectors) if inside >> v & 1)
        yield axis, held, every & ~hit


def test_sections_match_the_walk_per_axis():
    axes = list(range(1, 64))
    assert list(_sections(axes)) == list(_reference_sections(axes))
    assert list(_sections(axes[::-1])) == list(_reference_sections(axes[::-1]))


def _section_points(c):
    """Per section: the mask of the point indices of c inside it, and their labels."""
    return [
        (held, tuple(c.labels[i] for i in bit_indices(held)))
        for _, held, _ in _sections(range(1, 64))
    ]


def _restricted_to_sections(c, sections):
    """Per section, the restriction of c to its points and the lines of c
    inside them, as the core takes it and as a structure with the lines as
    written."""
    written = [tuple(c.labels[i] for i in line) for line in c.lines]
    restrictions, structures = [], []
    for points, labels in sections:
        ids = [j for j, mask in enumerate(c.line_points) if not mask & ~points]
        restrictions.append((points, sum(1 << j for j in ids)))
        structures.append(IncidenceStructure(c.name, labels, tuple(written[j] for j in ids)))
    return restrictions, structures


def _reference_lane(inc, seen):
    """What a lane should read for inc: the reference order, or its failing
    axiom; seen keeps those already found."""
    if inc not in seen:
        outcome = _axiom_outcome(_reference_verify_gq_axioms, inc)
        seen[inc] = outcome if isinstance(outcome[0], int) else outcome[0]
    return seen[inc]


def test_gq_order_lanes_match_reference_on_sections():
    c = compile_structure(build_quadric_quadrangle())
    restrictions, structures = _restricted_to_sections(c, _section_points(c))
    lanes = _gq_order(c, restrictions)
    assert sorted(map(str, lanes)) == ["(2, 2)"] * 36 + ["uniform point degree"] * 27
    assert lanes == [_reference_lane(inc, {}) for inc in structures]


def test_gq_order_mixes_line_sizes_in_the_one_lane_that_keeps_both():
    # the grid plus a 2-point line: the structure has two line sizes, but
    # only the lane that keeps every line mixes them; the lane that keeps
    # the short line alone is uniform
    grid = grid_gq21()
    c = compile_structure(make_structure("grid", grid.points, [*grid.lines, ("p00", "p11")]))
    written = [tuple(c.labels[i] for i in line) for line in c.lines]
    rows = [line for line in grid.lines if line[0][1] == line[1][1]]  # p{r}{c}, one r each
    lanes = [
        (c.labels, grid.lines),
        (c.labels, written),
        (c.labels, rows),
        (("p00", "p11"), [("p00", "p11")]),
    ]
    restrictions = [
        (
            sum(1 << c.labels.index(p) for p in points),
            sum(1 << written.index(line) for line in lines),
        )
        for points, lines in lanes
    ]
    outcomes = _gq_order(c, restrictions)
    assert outcomes == [(2, 1), "uniform line size", "unique perpendicular", (1, 0)]
    assert outcomes == [
        _reference_lane(IncidenceStructure(c.name, tuple(points), tuple(lines)), {})
        for points, lines in lanes
    ]


def test_gq_order_lanes_match_reference_on_random_swaps():
    # each swapped quadric model restricted by every section, in one call;
    # a swap may unsort a line, and it may repeat a point within a line or
    # repeat a whole line, which compile_structure and the reference reject
    rng = random.Random(2026)
    base = build_quadric_quadrangle()
    sections = _section_points(compile_structure(base))
    seen, outcomes, shared = {}, set(), 0
    for _ in range(200):
        lines = [list(line) for line in base.lines]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(len(lines)), 2)
            a, b = rng.randrange(3), rng.randrange(3)
            lines[i][a], lines[j][b] = lines[j][b], lines[i][a]
            if rng.random() < 0.5:
                rng.shuffle(lines[i])
        swapped = IncidenceStructure("swapped", base.points, tuple(map(tuple, lines)))
        try:
            c = compile_structure(swapped)
        except ValueError as exc:
            assert _axiom_outcome(_reference_point_sets, swapped) == ("rejected", str(exc))
            outcomes.add("rejected")
            continue
        restrictions, structures = _restricted_to_sections(c, sections)
        pairs = _lines_sharing_two_points(c.line_points)
        for inc, lane, (_, kept) in zip(structures, _gq_order(c, restrictions), restrictions):
            assert lane == _reference_lane(inc, seen)
            outcomes.add(lane if isinstance(lane, str) else "order")
            # independently of the reference: a lane that keeps two lines
            # sharing two points is never accepted
            if any(kept >> j & kept >> k & 1 for j, k in pairs):
                assert isinstance(lane, str)
                shared += 1
    assert len(outcomes) >= 4 and shared

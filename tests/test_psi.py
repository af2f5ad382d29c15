"""Gadget construction, rank table, oracles, and reduction correctness."""
import hashlib
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permpat import psi, selfcheck
from permpat.core import colayered, reduce_coordinates
from permpat.matching import contains_left_aligned


def with_role(grid, role):
    """The (x, y) pairs of the grid's points with this role, ascending."""
    return sorted((x, y) for x, y, r in grid if r == role)


def lis_length(points, start=None):
    """Longest increasing chain of (x, y) points under the clockwise
    tie-break keys, optionally required to start just after a fixed point."""
    keyed = sorted(((x, y), (y, -x)) for x, y in points)
    if start is not None:
        sx, sy = (start[0], start[1]), (start[1], -start[0])
        keyed = [q for q in keyed if q[0] > sx and q[1] > sy]
    best = [1] * len(keyed)
    ans = 0
    for i in range(len(keyed)):
        for j in range(i):
            if keyed[j][0] < keyed[i][0] and keyed[j][1] < keyed[i][1]:
                best[i] = max(best[i], best[j] + 1)
        ans = max(ans, best[i])
    return ans + (1 if start is not None else 0)


@st.composite
def instances(draw, max_k=3, max_n=5):
    k = draw(st.integers(min_value=1, max_value=max_k))
    n = draw(st.integers(min_value=1, max_value=max_n))
    g_pairs = list(itertools.combinations(range(1, k + 1), 2))
    h_pairs = list(itertools.combinations(range(1, n + 1), 2))
    g_edges = [p for p in g_pairs if draw(st.booleans())]
    h_edges = [p for p in h_pairs if draw(st.booleans())]
    chi = [draw(st.integers(min_value=1, max_value=k)) for _ in range(n)]
    return psi.PsiInstance(psi.Graph(k, g_edges), psi.Graph(n, h_edges), chi)


@st.composite
def grid_instances(draw, max_k=7, max_n=12):
    """Instances with k <= 7 and n <= 12, Graph(0) on both sides included,
    each graph empty, complete or random, and colorings that may leave
    classes empty."""
    k = draw(st.integers(min_value=0, max_value=max_k))
    n = draw(st.integers(min_value=0, max_value=max_n)) if k else 0

    def edges(count):
        pairs = list(itertools.combinations(range(1, count + 1), 2))
        density = draw(st.sampled_from(["empty", "complete", "random"]))
        if density == "random":
            return [p for p in pairs if draw(st.booleans())]
        return pairs if density == "complete" else []

    colors = draw(st.lists(st.integers(1, k), min_size=1, unique=True)) if k else []
    chi = [draw(st.sampled_from(colors)) for _ in range(n)]
    return psi.PsiInstance(psi.Graph(k, edges(k)), psi.Graph(n, edges(n)), chi)


class TestGraph:
    def test_normalizes_and_dedupes(self):
        g = psi.Graph(3, [(2, 1), (1, 2), (3, 1)])
        assert g.edges == frozenset({(1, 2), (1, 3)})
        assert g.edge_count == 2
        assert g.has_edge(2, 1)

    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            psi.Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            psi.Graph(2, [(1, 3)])


class TestPsiInstance:
    def test_validation(self):
        g = psi.Graph(2)
        with pytest.raises(ValueError):
            psi.PsiInstance(g, psi.Graph(2), (1,))
        with pytest.raises(ValueError):
            psi.PsiInstance(g, psi.Graph(2), (1, 3))

    def test_color_classes_sorted_and_possibly_empty(self):
        inst = psi.PsiInstance(psi.Graph(3), psi.Graph(4), (3, 1, 1, 3))
        assert inst.color_classes() == [[2, 3], [], [1, 4]]

    def test_bichromatic_edge_count(self):
        inst = psi.PsiInstance(
            psi.Graph(2), psi.Graph(3, [(1, 2), (2, 3)]), (1, 1, 2)
        )
        assert inst.bichromatic_edge_count() == 1

    def test_json_round_trip(self):
        inst = psi.PsiInstance(
            psi.Graph(2, [(1, 2)]), psi.Graph(3, [(1, 3)]), (1, 2, 1)
        )
        again = psi.PsiInstance.from_json(json.dumps(inst.to_json_obj()))
        assert again == inst

    def test_json_format_fields(self):
        doc = {"G": {"k": 2, "edges": [[1, 2]]}, "H": {"n": 2, "edges": []}, "chi": [1, 2]}
        inst = psi.PsiInstance.from_json_obj(doc)
        assert inst.g.vertex_count == 2 and inst.h.edge_count == 0


class TestRanks:
    def test_two_classes(self):
        inst = psi.PsiInstance(psi.Graph(2), psi.Graph(3), (1, 1, 2))
        table = psi.ranks(inst)
        assert table.rank == (0, 1, 2)
        assert table.reverse_rank == (1, 0, 2)

    def test_all_singletons(self):
        inst = psi.PsiInstance(psi.Graph(3), psi.Graph(3), (1, 2, 3))
        table = psi.ranks(inst)
        assert table.rank == table.reverse_rank == (0, 1, 2)

    def test_single_class(self):
        inst = psi.PsiInstance(psi.Graph(1), psi.Graph(3), (1, 1, 1))
        table = psi.ranks(inst)
        assert table.rank == (0, 1, 2)
        assert table.reverse_rank == (2, 1, 0)

    @given(instances())
    @settings(max_examples=150)
    def test_ranks_are_bijections(self, inst):
        table = psi.ranks(inst)
        n = inst.h.vertex_count
        assert sorted(table.rank) == list(range(n))
        assert sorted(table.reverse_rank) == list(range(n))


class TestPatternPoints:
    def test_triangle(self):
        g = psi.Graph(3, [(1, 2), (2, 3), (1, 3)])
        pts = psi._pattern_grid(g)
        assert len(pts) == 23
        coords = {(x, y) for x, y, _ in pts}
        assert {(1, 8), (8, 1)} <= coords
        assert {(2, 9), (3, 11)} <= coords

    def test_one_vertex_no_edges(self):
        assert len(psi._pattern_grid(psi.Graph(1))) == 7

    def test_each_edge_adds_two_points(self):
        base = len(psi._pattern_grid(psi.Graph(3, [(1, 2)])))
        more = len(psi._pattern_grid(psi.Graph(3, [(1, 2), (2, 3)])))
        assert more == base + 2

    def test_row_pairs_increasing_between_anchors(self):
        g = psi.Graph(3, [(1, 2), (2, 3)])
        pts = psi._pattern_grid(g)
        (left_x, left_y), (right_x, right_y) = with_role(pts, "anchor")
        rows = with_role(pts, "row_pair")
        assert len(rows) == 6
        assert all(left_x < x < right_x for x, _ in rows)
        assert all(a[1] < b[1] for a, b in zip(rows, rows[1:]))
        cols = with_role(pts, "col_pair")
        assert all(right_y < y < left_y for _, y in cols)
        assert all(a[1] < b[1] for a, b in zip(cols, cols[1:]))

    def test_anchor_forcing_chain(self):
        # below the top anchor: exactly 2k+1 points forming an increasing
        # chain that starts at the bottom anchor
        for k, edges in [(1, []), (2, [(1, 2)]), (3, [(1, 2), (2, 3), (1, 3)])]:
            pts = [(x, y) for x, y, _ in psi._pattern_grid(psi.Graph(k, edges))]
            top = next(p for p in pts if p[0] == 1)
            bottom = next(p for p in pts if p[1] == 1)
            below = [p for p in pts if p[1] < top[1]]
            assert len(below) == 2 * k + 1
            assert lis_length([p for p in below if p != bottom], start=bottom) == 2 * k + 1


class TestTextPoints:
    def test_sizes(self):
        inst = psi.PsiInstance(
            psi.Graph(2, [(1, 2)]), psi.Graph(2, [(1, 2)]), (1, 2)
        )
        assert len(psi._text_grid(inst)) == 14

    def test_monochromatic_edge_contributes_nothing(self):
        with_edge = psi.PsiInstance(psi.Graph(2), psi.Graph(2, [(1, 2)]), (1, 1))
        without = psi.PsiInstance(psi.Graph(2), psi.Graph(2), (1, 1))
        assert len(psi._text_grid(with_edge)) == len(psi._text_grid(without))

    def test_per_color_blocks_are_colayered(self):
        # the row pairs of one color class reduce to a co-layered
        # permutation whose layers are single ascending pairs
        inst = psi.PsiInstance(psi.Graph(2), psi.Graph(5), (1, 1, 1, 2, 2))
        table = psi.ranks(inst)
        pts = psi._text_grid(inst)
        n = inst.h.vertex_count
        for members in inst.color_classes():
            ys = set()
            for v in members:
                a = table.rank[v - 1] + 1
                ys.update({3 * a + 2 * n, 3 * a + 2 * n + 2})
            block = [(x, y) for x, y in with_role(pts, "row_pair") if y in ys]
            assert reduce_coordinates(block) == colayered([2] * len(members))

    def test_anchor_forcing_counts(self):
        # 2n+1 points lie below the top anchor; the longest increasing chain
        # from the bottom anchor has exactly 2k+1 points when every color
        # class is nonempty
        inst = psi.PsiInstance(
            psi.Graph(2, [(1, 2)]), psi.Graph(4, [(1, 3), (2, 4)]), (1, 2, 1, 2)
        )
        pts = [(x, y) for x, y, _ in psi._text_grid(inst)]
        n, k = 4, 2
        top = next(p for p in pts if p[0] == 1)
        bottom = next(p for p in pts if p[1] == 1)
        below = [p for p in pts if p[1] < top[1]]
        assert len(below) == 2 * n + 1
        chain = lis_length([p for p in below if p != bottom], start=bottom)
        assert chain == 2 * k + 1


class TestReducePsi:
    def test_size_formulas(self):
        inst = psi.PsiInstance(
            psi.Graph(3, [(1, 2), (2, 3)]),
            psi.Graph(4, [(1, 2), (3, 4), (1, 4)]),
            (1, 2, 3, 1),
        )
        gadget = psi.reduce_psi(inst)
        assert len(gadget.pattern) == 2 + 5 * 3 + 2 * 2
        m_bi = inst.bichromatic_edge_count()
        assert len(gadget.text) == 2 + 5 * 4 + 2 * m_bi
        assert gadget.pattern == reduce_coordinates([p[:2] for p in psi._pattern_grid(inst.g)])
        assert gadget.text == reduce_coordinates([p[:2] for p in psi._text_grid(inst)])

    @given(grid_instances())
    @example(psi.PsiInstance(psi.Graph(0), psi.Graph(0), ()))
    @example(psi.PsiInstance(psi.Graph(3, [(1, 2), (1, 3), (2, 3)]), psi.Graph(0), ()))
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_the_ranked_grid(self, inst):
        # reduce_psi writes both permutations without ranking points; the
        # grids that psi build dumps, ranked, are its oracle
        gadget = psi.reduce_psi(inst)
        assert gadget.pattern == reduce_coordinates([p[:2] for p in psi._pattern_grid(inst.g)])
        assert gadget.text == reduce_coordinates([p[:2] for p in psi._text_grid(inst)])

    def test_empty_graphs_still_valid(self):
        inst = psi.PsiInstance(psi.Graph(1), psi.Graph(1), (1,))
        gadget = psi.reduce_psi(inst)
        assert len(gadget.pattern) == 7 and len(gadget.text) == 7
        assert gadget.pattern == gadget.text

    def test_unbalanced_note(self):
        triangle = psi.Graph(3, [(1, 2), (2, 3), (1, 3)])
        inst = psi.PsiInstance(triangle, psi.Graph(1), (1,))
        assert psi.reduce_psi(inst).notes == ()
        inst2 = psi.PsiInstance(psi.Graph(3), psi.Graph(1), (1,))
        assert psi.reduce_psi(inst2).notes != ()

    @given(instances())
    @settings(max_examples=100)
    def test_dump_records_carry_the_five_grid_roles(self, inst):
        # each grid writes only five roles: 2 anchors and, per encoded
        # vertex, 2 row-pair, 2 column-pair and 1 diagonal points, plus 2
        # cells per encoded edge
        doc = psi.reduce_psi(inst).to_json_obj()
        sides = [
            ("pattern_points", inst.g.vertex_count, inst.g.edge_count),
            ("text_points", inst.h.vertex_count, inst.bichromatic_edge_count()),
        ]
        for key, units, edges in sides:
            assert all(list(rec) == ["x", "y", "role"] for rec in doc[key])
            roles = Counter(rec["role"] for rec in doc[key])
            assert roles == Counter(
                anchor=2, row_pair=2 * units, col_pair=2 * units, diagonal=units, cell=2 * edges
            )

    # sha256 of one line per instance of selfcheck's 500-instance quick
    # sample, joined by newlines; the values were computed when the gadget
    # still reduced Point objects through a PointSet, and dumps were written
    # from them
    def test_quick_sample_permutations_pinned(self):
        lines = []
        for inst in selfcheck.psi_instances("quick"):
            gadget = psi.reduce_psi(inst)
            lines.append(f"{gadget.pattern.to_text()}|{gadget.text.to_text()}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "41a6e6303866a3dbbd2399d7ae753caa88cecf8acbbd0babc984eb9a440ed63b"
        )

    def test_quick_sample_dumps_pinned(self):
        lines = [
            json.dumps(psi.reduce_psi(inst).to_json_obj())
            for inst in selfcheck.psi_instances("quick")
        ]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "3f1554ff882c4776bf31df1ac3749b3a9a7cd00926cf37ef68e7b29556f7c030"
        )


class TestSolvePsi:
    def test_single_edge_yes(self):
        inst = psi.PsiInstance(
            psi.Graph(2, [(1, 2)]), psi.Graph(2, [(1, 2)]), (1, 2)
        )
        assert psi.solve_psi_bruteforce(inst) == (1, 2)

    def test_isolated_vertices_no(self):
        inst = psi.PsiInstance(psi.Graph(2, [(1, 2)]), psi.Graph(2), (1, 2))
        assert psi.solve_psi_bruteforce(inst) is None

    def test_empty_class_no(self):
        inst = psi.PsiInstance(
            psi.Graph(3, [(1, 2), (2, 3), (1, 3)]),
            psi.Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]),
            (1, 2, 1, 2, 1, 2),
        )
        assert psi.solve_psi_bruteforce(inst) is None


class TestVerifyReduction:
    def test_yes_instance(self):
        inst = psi.PsiInstance(
            psi.Graph(2, [(1, 2)]), psi.Graph(2, [(1, 2)]), (1, 2)
        )
        report = psi.verify_reduction(inst)
        assert report.agree and report.psi_answer and report.ppm_answer

    def test_no_instance(self):
        inst = psi.PsiInstance(psi.Graph(2, [(1, 2)]), psi.Graph(2), (1, 2))
        report = psi.verify_reduction(inst)
        assert report.agree and not report.psi_answer and not report.ppm_answer

    def test_empty_class_means_both_no(self):
        inst = psi.PsiInstance(psi.Graph(2, [(1, 2)]), psi.Graph(1), (1,))
        report = psi.verify_reduction(inst)
        assert report.agree and not report.psi_answer

    def test_oversize_rejected(self):
        inst = psi.PsiInstance(psi.Graph(2), psi.Graph(13), (1,) * 13)
        with pytest.raises(ValueError, match="too large"):
            psi.verify_reduction(inst)
        assert psi.verify_reduction(inst, max_text_len=100).agree

    def test_oversize_pattern_rejected(self):
        # 2 + 5k + 2|E_G| = 67 for k = 13 and no edges
        inst = psi.PsiInstance(psi.Graph(13), psi.Graph(1), (1,))
        assert psi.pattern_length(inst.g) == 67
        with pytest.raises(ValueError, match="too large"):
            psi.verify_reduction(inst)
        assert psi.verify_reduction(inst, max_text_len=67).agree

    @given(instances(max_k=3, max_n=4))
    @settings(max_examples=120, deadline=None)
    def test_agreement_on_random_instances(self, inst):
        report = psi.verify_reduction(inst, max_text_len=100)
        assert report.agree

    def test_agreement_on_fixed_sample(self):
        rng = random.Random(515)
        for _ in range(60):
            k = rng.randint(1, 3)
            n = rng.randint(1, 4)
            g_edges = [e for e in itertools.combinations(range(1, k + 1), 2) if rng.random() < 0.5]
            h_edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
            chi = [rng.randint(1, k) for _ in range(n)]
            inst = psi.PsiInstance(psi.Graph(k, g_edges), psi.Graph(n, h_edges), chi)
            gadget = psi.reduce_psi(inst)
            assert contains_left_aligned(gadget.pattern, gadget.text) == (
                psi.solve_psi_bruteforce(inst) is not None
            )

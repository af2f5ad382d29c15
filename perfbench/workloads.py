"""Seeded inputs and independent answer checks for the four workloads.

Nothing in this file imports permpat.  The inputs and the answers they are
checked against come from here alone, so a defect in the code under test
cannot also hide itself in the check.

A workload is a list of *units*.  A unit is a list of requests sent in one
message and checked together: a batch of instances for ``psi-sweep``, four
texts with every pattern of one length each for ``count-random`` (its sum
identities need a text's whole group), a single request otherwise.  The client
sends units in order, cycling when it runs out, and only starts a new unit
while its measuring window is open.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("psi-sweep", "count-random", "gap-verify", "big-text")

BIG_TEXT_N = 10**6
COUNT_RANDOM_UNITS = 32
TEXTS_PER_K = 2
# psi-sweep requests take about 0.3 ms; sent one per message, the two
# context switches of each round trip were a third of the time and the
# noisiest part of it.
PSI_BATCH = 64


@dataclass
class Workload:
    """Requests to send, and how to judge the replies to one unit."""

    name: str
    units: list[list[dict]]
    # check(unit_index, outputs) -> one bool per request, True when correct;
    # the output of a request that raised is None
    check: Callable[[int, list], list[bool]]
    sizes: dict = field(default_factory=dict)
    files: list[Path] = field(default_factory=list)  # inputs written at set-up, removed after the run
    # Run each unit on a fresh worker, as a command-line invocation would.
    fresh_worker: bool = False


# ---------------------------------------------------------------- psi-sweep


def psi_family() -> list[dict]:
    """The exhaustive criterion-4 family as PSI JSON objects.

    Same enumeration order as ``selfcheck.psi_family()``: every simple G on
    k in (2, 3) vertices with at most 3 edges, every H on up to 4 vertices,
    every colouring of H by G.
    """
    family = []
    for k in (2, 3):
        g_pairs = list(itertools.combinations(range(1, k + 1), 2))
        for g_count in range(min(len(g_pairs), 3) + 1):
            for g_edges in itertools.combinations(g_pairs, g_count):
                for n in range(1, 5):
                    h_pairs = list(itertools.combinations(range(1, n + 1), 2))
                    for h_count in range(len(h_pairs) + 1):
                        for h_edges in itertools.combinations(h_pairs, h_count):
                            for chi in itertools.product(range(1, k + 1), repeat=n):
                                family.append({
                                    "G": {"k": k, "edges": [list(e) for e in g_edges]},
                                    "H": {"n": n, "edges": [list(e) for e in h_edges]},
                                    "chi": list(chi),
                                })
    return family


def psi_has_solution(instance: dict) -> bool:
    """Whether some colour-respecting map sends every G-edge onto an H-edge."""
    k = instance["G"]["k"]
    chi = instance["chi"]
    h_edges = {frozenset(e) for e in instance["H"]["edges"]}
    classes = [[v for v in range(1, len(chi) + 1) if chi[v - 1] == c] for c in range(1, k + 1)]
    return any(
        all(frozenset((phi[a - 1], phi[b - 1])) in h_edges for a, b in instance["G"]["edges"])
        for phi in itertools.product(*classes)
    )


def psi_gadget_lengths(instance: dict) -> tuple[int, int]:
    """Pattern length 2+5k+2|E_G| and text length 2+5n+2*m_bi."""
    chi = instance["chi"]
    m_bi = sum(1 for u, w in instance["H"]["edges"] if chi[u - 1] != chi[w - 1])
    return (
        2 + 5 * instance["G"]["k"] + 2 * len(instance["G"]["edges"]),
        2 + 5 * instance["H"]["n"] + 2 * m_bi,
    )


def psi_sweep(seed: int) -> Workload:
    family = psi_family()
    random.Random(seed).shuffle(family)

    def correct(inst: dict, out: dict | None) -> bool:
        pattern_len, text_len = psi_gadget_lengths(inst)
        return (
            out is not None
            and out["agree"] is True
            and out["ppm_answer"] == psi_has_solution(inst)
            and out["pattern_length"] == pattern_len
            and out["text_length"] == text_len
        )

    def check(i: int, outs: list) -> list[bool]:
        return [correct(inst, out) for inst, out in zip(family[i * PSI_BATCH:], outs)]

    return Workload(
        name="psi-sweep",
        units=[[{"op": "psi", "instance": inst} for inst in family[i:i + PSI_BATCH]]
               for i in range(0, len(family), PSI_BATCH)],
        check=check,
        sizes={"instances": len(family), "max_text_len": max(psi_gadget_lengths(i)[1] for i in family)},
    )


# ------------------------------------------------------------- count-random


def random_permutation(rng: random.Random, n: int) -> list[int]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return values


def stratified_sizes(count: int, lo: int, hi: int) -> list[int]:
    """The midpoints of ``count`` equal strata of lo..hi."""
    return [lo + (2 * j + 1) * (hi - lo + 1) // (2 * count) for j in range(count)]


def count_group_ok(k: int, n: int, copies: list[int], left: list[int]) -> bool:
    """Sum identities over all k! patterns of one text of length n.

    Every k-subset of positions is a copy of exactly one k-pattern, and every
    k-subset holding the first position is a left-aligned copy of exactly one.
    """
    return sum(copies) == math.comb(n, k) and sum(left) == math.comb(n - 1, k - 1)


def interleave(classes: list[list], rng: random.Random) -> list:
    """Merge shuffled classes so that every prefix holds each class in proportion.

    Item j of a class of size m sits at (j + u) / m on [0, 1), with u drawn per
    class.  Where a run's window closes then does not decide its mix.
    """
    keyed = []
    for c, members in enumerate(classes):
        members = list(members)
        rng.shuffle(members)
        u = rng.random()
        keyed += [((j + u) / len(members), c, item) for j, item in enumerate(members)]
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def count_random(seed: int, units: int = COUNT_RANDOM_UNITS) -> Workload:
    """Each unit holds TEXTS_PER_K seeded texts of each pattern length, one
    per stratum of its size range, with every pattern of that length counted
    both ways on each, and its requests interleaved in proportion.

    Request costs grow as n^3 and n^4, from milliseconds to half a second.
    Sent one text after another, with sizes varying from text to text, the
    requests measured before the window closed were a different mix in every
    run, and the median moved by half.  Here every unit, and every prefix of
    one, holds the same mix.
    """
    rng = random.Random(seed)
    ranges = {3: (128, 256), 4: (48, 96)}
    sizes = {k: stratified_sizes(TEXTS_PER_K, lo, hi) for k, (lo, hi) in ranges.items()}
    all_units, shapes, layouts = [], [], []
    for _ in range(units):
        groups, shape = [], []
        for k in ranges:
            for n in sizes[k]:
                text = random_permutation(rng, n)
                g = len(shape)
                groups.append([(g, {"op": op, "pattern": list(pattern), "text": text})
                               for pattern in itertools.permutations(range(1, k + 1))
                               for op in ("count_copies", "count_left_aligned")])
                shape.append((k, n))
        order = interleave(groups, rng)
        all_units.append([req for _, req in order])
        layouts.append([(g, req["op"]) for g, req in order])
        shapes.append(shape)

    def check(i: int, outs: list) -> list[bool]:
        counts: dict[tuple[int, str], list[int]] = {}
        broken = set()
        for (g, op), out in zip(layouts[i], outs):
            try:
                count = int(out)
            except (TypeError, ValueError):
                broken.add(g)
                continue
            if count < 0:
                broken.add(g)
            counts.setdefault((g, op), []).append(count)
        ok = [
            g not in broken
            and count_group_ok(k, n, counts.get((g, "count_copies"), []), counts.get((g, "count_left_aligned"), []))
            for g, (k, n) in enumerate(shapes[i])
        ]
        return [ok[g] for g, _ in layouts[i]]

    return Workload(
        name="count-random",
        units=all_units,
        check=check,
        sizes={
            "units": units,
            "k3_n": sizes[3],
            "k4_n": sizes[4],
            "requests_per_pass": sum(len(u) for u in all_units),
        },
    )


# --------------------------------------------------------------- gap-verify


def gap_sources() -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(pi, tau, alpha): |pi|=2, |tau| in {3,4}, alpha in {1,2}; |pi|=3, |tau|<=4, alpha=1."""
    def perms(n):
        return list(itertools.permutations(range(1, n + 1)))

    out = [(pi, tau, a) for pi in perms(2) for m in (3, 4) for tau in perms(m) for a in (1, 2)]
    out += [(pi, tau, 1) for pi in perms(3) for m in (1, 2, 3, 4) for tau in perms(m)]
    return out


def has_left_aligned_copy(pi: tuple[int, ...], tau: tuple[int, ...]) -> bool:
    """Subset enumeration: some k-subset holding position 0 is order-isomorphic to pi."""
    k = len(pi)
    for rest in itertools.combinations(range(1, len(tau)), k - 1):
        vals = [tau[0]] + [tau[i] for i in rest]
        if all((pi[a] < pi[b]) == (vals[a] < vals[b]) for a in range(k) for b in range(a + 1, k)):
            return True
    return False


def inflated_lengths(k: int, n: int, alpha: int) -> tuple[int, int]:
    """k' = alpha*k + k - 1 and n' = alpha*k*n^alpha + n - 1."""
    return alpha * k + k - 1, alpha * k * n**alpha + n - 1


def gap_verify(seed: int) -> Workload:
    sources = gap_sources()
    by_class: dict[tuple[int, int, int], list] = {}
    for src in sources:
        by_class.setdefault((len(src[0]), len(src[1]), src[2]), []).append(src)
    order = interleave([by_class[c] for c in sorted(by_class)], random.Random(seed))

    def check(i: int, outs: list) -> list[bool]:
        (pi, tau, alpha), out = order[i], outs[0]
        k_prime, n_prime = inflated_lengths(len(pi), len(tau), alpha)
        return [
            out is not None
            and out["checks_pass"] is True
            and out["source_has_left_aligned_copy"] == has_left_aligned_copy(pi, tau)
            and out["k_prime"] == k_prime
            and out["n_prime"] == n_prime
        ]

    return Workload(
        name="gap-verify",
        units=[[{"op": "gap", "pi": list(pi), "tau": list(tau), "alpha": a}] for pi, tau, a in order],
        check=check,
        sizes={
            "sources": len(order),
            "max_inflated_text_len": max(inflated_lengths(len(p), len(t), a)[1] for p, t, a in order),
        },
    )


# ----------------------------------------------------------------- big-text


def fenwick_inversions(values: list[int]) -> int:
    """Inversions of a permutation of 1..n with a Fenwick tree of seen values."""
    n = len(values)
    tree = [0] * (n + 1)
    inversions = 0
    for seen, x in enumerate(values):
        i, below = x, 0
        while i:
            below += tree[i]
            i &= i - 1
        inversions += seen - below
        i = x
        while i <= n:
            tree[i] += 1
            i += i & -i
    return inversions


def big_text(seed: int, root: Path, text_path: Path, n: int = BIG_TEXT_N) -> Workload:
    """Writes the text to ``text_path``; requests name it relative to ``root``."""
    values = random_permutation(random.Random(seed), n)
    text_path.parent.mkdir(parents=True, exist_ok=True)
    text_path.write_text(" ".join(map(str, values)), encoding="utf-8")
    expected = str(fenwick_inversions(values))
    argv = ["count", "--mode", "inversions", "--text", "@" + text_path.relative_to(root).as_posix()]

    def check(i: int, outs: list) -> list[bool]:
        return [outs[0] == {"count": expected}]

    return Workload(
        name="big-text",
        units=[[{"op": "cli", "argv": argv}]],
        check=check,
        sizes={"n": n, "file_bytes": text_path.stat().st_size},
        files=[text_path],
        # In one long-lived process, each 10^6-element call leaves ~48 MB in
        # reference cycles until a full collection, so peak memory would
        # follow the number of requests a window completes.
        fresh_worker=True,
    )


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    if name == "psi-sweep":
        return psi_sweep(seed)
    if name == "count-random":
        return count_random(seed)
    if name == "gap-verify":
        return gap_verify(seed)
    if name == "big-text":
        return big_text(seed, root, work / f"big-text-{seed}.txt")
    raise ValueError(f"unknown workload {name!r}")

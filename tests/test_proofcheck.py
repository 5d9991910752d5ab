import itertools
import math
import random
from fractions import Fraction

import pytest

from posetturan import cli, embedding, proofcheck
from posetturan.cli import run_command
from posetturan.constructions import middle_two_levels, p5_construction
from posetturan.embedding import find_embedding, is_free, minimal_posets
from posetturan.formulas import katona_nagy
from posetturan.lattice import SetFamily, cached_lattice, comparability_components, iter_bits, level_family
from posetturan.posets import chain, m_poset, n_poset, w_poset
from posetturan.proofcheck import (
    Coloring,
    LemmaReport,
    NotFreeError,
    ZigzagWitness,
    _draw_zigzag,
    _find_graph_path,
    _hosts,
    _order,
    _run_suite,
    _walks,
    _zigzag_ascending,
    _zigzag_dirs,
    check_one_critical_pair_per_chain,
    classify_nfree_components,
    color_family,
    erdos_gallai_check,
    p5_component_report,
    verify_chaincount,
    verify_coloring,
    verify_erdos_gallai,
    verify_nfree_components,
    verify_sublattice,
    verify_zigzag,
    zigzag_find_WM,
)


def brute_one_pair_per_chain(n, coloring):
    """Reference check walking all n! full chains."""
    for perm in itertools.permutations(range(n)):
        masks = [0]
        for i in perm:
            masks.append(masks[-1] | 1 << i)
        hits = 0
        for a, b in zip(masks, masks[1:]):
            if (a, b) in coloring.critical_pairs:
                hits += 1
        if hits > 1:
            return False
    return True


class TestColoring:
    def test_matches_strict_containment_reference(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 8)
            fam = SetFamily(n, [m for m in range(1 << n) if rng.random() < rng.random()])
            t = rng.randint(1, 4)
            blue = {
                g for g in range(1 << n)
                if sum(1 for f in fam.members if g != f and g & f == g) >= t
            }
            pairs = sorted(
                (g, g | 1 << i) for g in blue for i in range(n)
                if not g >> i & 1 and g | 1 << i not in blue
            )
            col = color_family(fam, t)
            assert col.blue == sum(1 << g for g in blue) and col.critical_pairs == tuple(pairs)

    def test_middle_levels_t2(self):
        col = color_family(middle_two_levels(4), 2)
        assert all(m.bit_count() <= 2 for m in iter_bits(col.blue))
        assert len(col.critical_pairs) == 12

    def test_full_lattice_t1(self):
        col = color_family(cached_lattice(3), 1)
        assert col.critical_pairs == ((3, 7), (5, 7), (6, 7))

    def test_blue_is_strict_containment(self):
        col = color_family(SetFamily(3, [3]), 1)
        assert col.blue == 0b111  # masks 0, 1 and 2

    def test_threshold_raises(self):
        with pytest.raises(ValueError):
            color_family(cached_lattice(3), 0)

    def test_one_pair_per_chain_examples(self):
        col = color_family(middle_two_levels(4), 2)
        assert check_one_critical_pair_per_chain(col)

    def test_matches_permutation_oracle(self):
        import random

        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(2, 5)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(1, min(10, 1 << n))))
            col = color_family(fam, rng.randint(1, 3))
            assert check_one_critical_pair_per_chain(col) == brute_one_pair_per_chain(
                n, col
            )


def offending_masks(n, blue):
    """The masks of the bitset ``blue`` with an element whose removal leaves blue, ascending."""
    return [g for g in iter_bits(blue) if any(g >> i & 1 and not blue >> (g ^ 1 << i) & 1 for i in range(n))]


class TestVerifyColoringFailures:
    def test_a_dropped_empty_set_is_reported_at_the_least_offending_mask(self, monkeypatch):
        # without the empty set every blue singleton offends; the first failure
        # (n = 3, F = [3], t = 1: blue masks 0, 1, 2) has two of them
        color_family = proofcheck.color_family
        offenders = []

        def dropped(family, t):
            n = family.n
            col = color_family(family, t)
            blue = col.blue & ~1  # drop mask 0
            if offending_masks(n, blue):
                offenders.append((n, t, offending_masks(n, blue)))
            return Coloring(n, family, t, blue, col.critical_pairs)

        monkeypatch.setattr(proofcheck, "color_family", dropped)
        rep = verify_coloring(seed=0)
        assert rep.instances_checked == 1268
        assert rep.failures == len(offenders) > 0
        assert offenders[0] == (3, 1, [1, 2])
        assert rep.first_failure == "n=3 t=1: blue set not a downset at 1"


def hand_coloring(n, pairs):
    """A Coloring carrying only the given critical pairs (no family, no blue sets)."""
    return Coloring(n, SetFamily(n, []), 1, 0, tuple(pairs))


class TestCriticalPairCheck:
    """Hand-built critical pairs: color_family only yields down-sets, which always pass."""

    @pytest.mark.parametrize("pairs, ok", [
        (((0, 1), (3, 7)), False),  # 0 < 1 < 3 < 7 is one chain through both pairs
        (((0, 1), (1, 3)), False),  # the top of one pair is the bottom of the other
        (((1, 3), (0, 1)), False),
        (((0, 1), (2, 6)), True),   # {1} and {2, 3} are incomparable
        (((1, 3), (2, 3)), True),   # a shared top: no chain holds both bottoms
        (((0, 1),), True),
        ((), True),
    ])
    def test_examples(self, pairs, ok):
        col = hand_coloring(3, pairs)
        assert check_one_critical_pair_per_chain(col) is ok
        assert brute_one_pair_per_chain(3, col) is ok

    def test_random_pair_lists_match_permutation_oracle(self):
        rng = random.Random(23)
        seen = set()
        for _ in range(300):
            n = rng.randint(1, 5)
            steps = [(g, g | 1 << i) for g in range(1 << n) for i in range(n) if not g >> i & 1]
            col = hand_coloring(n, rng.sample(steps, rng.randint(0, min(4, len(steps)))))
            expect = brute_one_pair_per_chain(n, col)
            assert check_one_critical_pair_per_chain(col) is expect
            seen.add(expect)
        assert seen == {True, False}

    def test_dimension_checks(self):
        with pytest.raises(ValueError, match="n <= 12"):
            check_one_critical_pair_per_chain(hand_coloring(13, [(0, 1)]))


class TestNFreeComponents:
    def test_star_classification(self):
        classes = classify_nfree_components(SetFamily(3, [0, 1, 2, 4]))
        assert len(classes) == 1
        assert classes[0].kind == "star" and classes[0].center == 0

    def test_triangle_classification(self):
        classes = classify_nfree_components(SetFamily(3, [1, 3, 7]))
        assert classes[0].kind == "triangle" and classes[0].center is None

    def test_mixed(self):
        fam = SetFamily(4, [1, 3, 7, 8])
        kinds = sorted(c.kind for c in classify_nfree_components(fam))
        assert kinds == ["star", "triangle"]

    def test_refuses_non_free(self):
        with pytest.raises(NotFreeError) as exc:
            classify_nfree_components(SetFamily(3, [0, 1, 2, 4, 7]))
        assert exc.value.witness.check()

    def test_hosts_n_matches_the_engine_and_brute_force(self):
        # N: p1 < q1, p2 < q1, p2 < q2, over four distinct members
        def brute(fam):
            lt = [[a != b and a & b == a for b in fam.members] for a in fam.members]
            return any(lt[p1][q1] and lt[p2][q1] and lt[p2][q2]
                       for p1, p2, q1, q2 in itertools.permutations(range(len(fam)), 4))

        rng = random.Random(5)
        families = [SetFamily(3, [m for m in range(8) if bits >> m & 1]) for bits in range(256)]
        for _ in range(600):
            n = rng.randint(4, 6)
            families.append(SetFamily(n, rng.sample(range(1 << n), rng.randint(1, 8))))
        for fam in families:
            hosts = proofcheck._hosts_n(fam)
            assert hosts == brute(fam) == (not is_free(fam, [n_poset()])), fam.members

    def test_verifier_searches_each_instance_once(self, monkeypatch):
        # the classifier's search is the only one; freeness is read off the bitsets
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return find_embedding(*args, **kwargs)

        monkeypatch.setattr(embedding, "find_embedding", counted)
        report = proofcheck.verify_nfree_components(0)
        assert (report.instances_checked, report.failures) == (656, 0)
        assert len(calls) == 656


class TestZigzag:
    def test_six_chain_is_w(self):
        seq = [0, 1, 3, 7, 15, 31]
        wit = zigzag_find_WM(5, seq)
        assert wit.which == "W"

    def test_alternating_m(self):
        wit = zigzag_find_WM(3, [0, 3, 1, 5, 4, 6])
        assert wit.which == "M"
        assert wit.indices == (0, 1, 2, 3, 4)

    def test_alternating_w(self):
        wit = zigzag_find_WM(3, [3, 1, 5, 4, 6, 2])
        assert wit.which == "W"

    def test_selection_embeds(self):
        seq = [0, 3, 2, 6, 4, 5]
        wit = zigzag_find_WM(3, seq)
        chosen = SetFamily(3, [seq[i] for i in wit.indices])
        target = w_poset() if wit.which == "W" else m_poset()
        assert find_embedding(chosen, target) is not None

    def test_rejects_short_or_repeated(self):
        with pytest.raises(ValueError):
            zigzag_find_WM(3, [0, 1, 3, 7, 5])
        with pytest.raises(ValueError):
            zigzag_find_WM(3, [0, 1, 3, 1, 5, 7])

    def test_rejects_incomparable_step(self):
        with pytest.raises(ValueError):
            zigzag_find_WM(3, [1, 2, 3, 7, 5, 4])

    def test_rejects_sets_outside_the_read_lattice(self):
        # the selections are checked inside the cached 2^[n], so n and the sets must fit it
        with pytest.raises(ValueError, match="subsets of"):
            zigzag_find_WM(2, [0, 1, 3, 7, 15, 31])
        with pytest.raises(ValueError, match="subsets of"):
            zigzag_find_WM(13, [0, 1, 3, 7, 15, 31])


def engine_hosts(n, poset, masks):
    """_hosts without the memo or the cached lattice: search the selection itself."""
    return find_embedding(SetFamily(n, masks), poset) is not None


W_SHAPE = [5, 1, 3, 2, 6]  # b = {1} < a = {1, 3}, c = {1, 2}; d = {2} < c, e = {2, 3}


class TestHosts:
    def test_w_shape_hosts_w_only(self):
        # same containment order, different posets: the memo key keeps the poset
        assert _hosts(3, w_poset(), W_SHAPE)
        assert not _hosts(3, m_poset(), W_SHAPE)

    def test_complement_reverses_the_answer(self):
        # the complements have the same comparabilities in reverse: the key keeps the direction
        flipped = [7 ^ s for s in W_SHAPE]
        assert _hosts(3, m_poset(), flipped)
        assert not _hosts(3, w_poset(), flipped)

    def test_antichain_hosts_neither(self):
        antichain = [3, 5, 6, 9, 10]  # 2-subsets of [4]
        assert not _hosts(4, w_poset(), antichain)
        assert not _hosts(4, m_poset(), antichain)

    def test_chains(self):
        # a weak embedding: a 5-chain hosts every 5-element poset, a 4-chain none of them
        five = [0, 1, 3, 7, 15]
        assert _hosts(4, w_poset(), five) and _hosts(4, m_poset(), five)
        assert not _hosts(4, w_poset(), five[:4]) and not _hosts(4, chain(5), five[:4])
        assert _hosts(4, n_poset(), five[:4])

    def test_random_selections_match_the_engine(self):
        rng = random.Random(31)
        posets = (w_poset(), m_poset(), n_poset(), chain(3))
        seen = set()
        for n in range(3, 9):
            for _ in range(150):
                if rng.random() < 0.5:
                    masks = _draw_zigzag(rng, n, 6)[0][:5]
                else:
                    masks = rng.sample(range(1 << n), 5)
                for poset in posets:
                    expect = engine_hosts(n, poset, masks)
                    assert _hosts(n, poset, masks) is expect, (n, masks, poset)
                    seen.add(expect)
        assert seen == {True, False}

    @pytest.mark.parametrize("seed", range(3))
    def test_every_zigzag_check_matches_the_engine(self, seed, monkeypatch):
        calls = []

        def recorded(n, poset, masks):
            got = _hosts(n, poset, masks)
            calls.append((n, poset, tuple(masks), got))
            return got

        monkeypatch.setattr(proofcheck, "_hosts", recorded)
        assert verify_zigzag(seed).failures == 0
        # each containment order is judged once, and a judgement asks at least one selection
        orders = {matrix_order(seq) for _, seq in verifier_zigzags(seed)}
        assert len(calls) >= len(orders)
        reference = {}
        for n, poset, masks, got in calls:
            key = (poset, frozenset(masks))
            if key not in reference:
                reference[key] = engine_hosts(n, poset, masks)
            assert got is reference[key], (n, masks, poset)

    def test_one_engine_search_per_containment_order(self, monkeypatch):
        searches = []

        def counted(*args, **kwargs):
            searches.append(args[1])
            return find_embedding(*args, **kwargs)

        monkeypatch.setattr(proofcheck, "_HOSTS", {})
        monkeypatch.setattr(proofcheck, "find_embedding", counted)
        assert verify_zigzag(0).failures == 0
        assert len(searches) == len(proofcheck._HOSTS) < 2000


def recursive_zigzag_select(n, seq, dirs, start, m, direction):
    """Reference for _zigzag_select: a descending run recurses on the complemented sequence."""
    if m >= 5:
        witness = ZigzagWitness("W", tuple(range(start, start + 5)))
    elif direction == -1:
        full = (1 << n) - 1
        flipped = recursive_zigzag_select(
            n, [full ^ s for s in seq], [-d for d in dirs], start, m, 1
        )
        witness = ZigzagWitness("W" if flipped.which == "M" else "M", flipped.indices)
    else:
        witness = ZigzagWitness(*_zigzag_ascending(dirs, start, m))
    target = w_poset() if witness.which == "W" else m_poset()
    assert _hosts(n, target, [seq[i] for i in witness.indices])
    return witness


class TestZigzagSelection:
    def test_all_n3_sequences_match_the_recursive_selection(self):
        for seq, _ in lattice_walks(3):
            assert zigzag_find_WM(3, seq) == recursive_zigzag_select(3, seq, *_zigzag_dirs(seq))

    @pytest.mark.parametrize("n", range(4, 9))
    def test_random_sequences_match_the_recursive_selection(self, n):
        rng = random.Random(100 + n)
        seen = set()
        for _ in range(2000):
            seq = _draw_zigzag(rng, n, 6)[0]
            dirs, start, m, direction = _zigzag_dirs(seq)
            wit = zigzag_find_WM(n, seq)
            assert wit == recursive_zigzag_select(n, seq, dirs, start, m, direction), seq
            seen.add((min(m, 5), direction, wit.which))
        # both run directions, both labels, and every run length are reached
        assert {(m, d) for m, d, _ in seen if m < 5} == {(m, d) for m in (2, 3, 4) for d in (1, -1)}
        assert {which for _, _, which in seen} == {"W", "M"}


def windows_reference_check(n, seq):
    """verify_zigzag's check on _find_WM as it was: both window splits asked in full."""
    try:
        run = proofcheck._find_WM(n, seq)[1]
    except AssertionError as exc:
        return f"n={n} seq={seq}: {exc}"
    if run == 2:
        w, m, hosts = w_poset(), m_poset(), proofcheck._hosts
        lo, hi = seq[:5], seq[1:]
        if not ((hosts(n, m, lo) and hosts(n, w, hi)) or (hosts(n, w, lo) and hosts(n, m, hi))):
            return f"n={n} seq={seq}: windows do not split into W and M"


def reference_walks(near, starts, length):
    """_walks as it was, by recursion, without the order: every sequence of ``length``
    distinct indices, consecutive ones adjacent in ``near``."""

    def extend(walk, seen):
        # seen: bitset of the indices on the walk
        if len(walk) == length:
            yield list(walk)
            return
        for nxt in iter_bits(near[walk[-1]] & ~seen):
            walk.append(nxt)
            yield from extend(walk, seen | 1 << nxt)
            walk.pop()

    for start in starts:
        yield from extend([start], 1 << start)


def reference_all_zigzags(n, length=6):
    """Every sequence of ``length`` distinct, consecutively comparable subsets of [n],
    from the recursive walker, as the verifier listed them before its walk carried the order."""
    return reference_walks(cached_lattice(n).comparable, range(1 << n), length)


def lattice_walks(n, length=6):
    """_walks over 2^[n], whose member index is the mask: (seq, order) per sequence of
    ``length`` distinct, consecutively comparable subsets of [n]."""
    return _walks(cached_lattice(n).comparable, range(1 << n), length)


def reference_draw_zigzag(rng, n, length):
    """_draw_zigzag as it was, drawing through rng.randrange: the stream the draws must keep."""
    near = proofcheck._comparable_masks(n)
    while True:
        new = rng.randrange(1 << n)
        seq, order, taken = [new], 0, []
        for _ in range(length - 1):
            options = near[new]
            count = len(options) - len(taken)
            if not count:
                break
            k = rng.randrange(count)
            new = options[k]
            taken.sort()
            for s in taken:
                if s > new:
                    break
                k += 1
                new = options[k]
            taken = []
            for s in seq:
                x = s & new
                if x == s:
                    order = order << 2 | 1
                    taken.append(s)
                elif x == new:
                    order = order << 2 | 2
                    taken.append(s)
                else:
                    order <<= 2
            seq.append(new)
        if len(seq) == length:
            return seq, order


def verifier_zigzags(seed=7):
    """Every n = 3 sequence, then 2,000 random sequences per n = 4..8: verify_zigzag's
    instances, from the reference walker and draws."""
    for seq in reference_all_zigzags(3):
        yield 3, seq
    rng = random.Random(seed)
    for n in range(4, 9):
        for _ in range(2000):
            yield n, reference_draw_zigzag(rng, n, 6)[0]


def matrix_order(seq):
    """_order from the containment matrix: per pair i < j, by j then i, 1 if seq[i] is
    inside seq[j], 2 if seq[j] is inside seq[i], 0 if neither, as base-4 digits."""
    inside = [[a & b == a for b in seq] for a in seq]
    order = 0
    for j in range(len(seq)):
        for i in range(j):
            order = 4 * order + (1 if inside[i][j] else 2 if inside[j][i] else 0)
    return order


def suite_of_verify_zigzag(seed, monkeypatch):
    """verify_zigzag's (instances, check), taken before _run_suite runs them."""
    monkeypatch.setattr(proofcheck, "_run_suite", lambda lemma, seed, instances, check: (instances, check))
    suite = verify_zigzag(seed)
    monkeypatch.undo()
    return suite


class TestZigzagCheck:
    @pytest.mark.parametrize("faulty", (False, True))
    def test_verdicts_and_messages_match_the_reference(self, faulty, monkeypatch):
        instances, check = suite_of_verify_zigzag(7, monkeypatch)
        asked = []

        def hosts(n, poset, masks):
            asked.append((poset, tuple(masks)))
            got = _hosts(n, poset, masks)
            # a deterministic fault that reaches both failure messages; it depends
            # only on the containment order, as every verdict of the check must
            return got != (faulty and matrix_order(masks) % 5 == 0)

        monkeypatch.setattr(proofcheck, "_hosts", hosts)
        messages = set()
        for n, seq, order in instances:
            got = check(n, seq, order)
            assert len(set(asked)) == len(asked), seq  # no window asked twice
            assert got == windows_reference_check(n, seq)
            asked.clear()
            if got is not None:
                messages.add(got.split(": ")[1][:7])
        assert messages == ({"zigzag ", "windows"} if faulty else set())

    @pytest.mark.parametrize("seed", range(3))
    def test_memoised_messages_match_the_reference(self, seed, monkeypatch):
        instances, check = suite_of_verify_zigzag(seed, monkeypatch)
        streamed = []
        for n, seq, order in instances:
            streamed.append((n, seq))
            assert check(n, seq, order) == windows_reference_check(n, seq)
        assert streamed == list(verifier_zigzags(seed))

    def judged(self, seed, monkeypatch):
        """(report, the number of orders verify_zigzag(seed) judges)."""
        calls = []

        def counted(n, seq):
            calls.append(seq)
            return find_WM(n, seq)

        find_WM = proofcheck._find_WM
        monkeypatch.setattr(proofcheck, "_find_WM", counted)
        report = verify_zigzag(seed)
        monkeypatch.undo()
        return report, len(calls)

    def test_each_order_judged_once(self, monkeypatch):
        report, judged = self.judged(0, monkeypatch)
        assert report.failures == 0 and report.instances_checked == 12148
        assert judged == len({matrix_order(seq) for _, seq in verifier_zigzags(0)}) < 12148 // 2

    def test_no_verdict_kept_between_runs(self, monkeypatch):
        first, second = self.judged(0, monkeypatch)[1], self.judged(0, monkeypatch)[1]
        assert first == second > 0


def scan_zigzag(rng, n, length=6):
    """_draw_zigzag's sequence as a scan of all 2^n masks at every step."""
    while True:
        seq = [rng.randrange(1 << n)]
        for _ in range(length - 1):
            options = [
                m for m in range(1 << n)
                if m not in seq and (m & seq[-1] == m or m & seq[-1] == seq[-1])
            ]
            if not options:
                break
            seq.append(rng.choice(options))
        if len(seq) == length:
            return seq


class TestZigzagSequences:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_sequences_match_scan(self, seed):
        for n in range(4, 9):
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(50):
                assert _draw_zigzag(fast, n, 6)[0] == scan_zigzag(slow, n)

    @pytest.mark.parametrize("seed", range(5))
    def test_draws_carry_their_containment_order(self, seed):
        rng = random.Random(seed)
        for n in range(3, 9):
            for _ in range(300):
                seq, order = _draw_zigzag(rng, n, 6)
                assert order == _order(seq) == matrix_order(seq), seq

    @pytest.mark.parametrize("n", (1, 2))
    def test_too_few_sets_refused(self, n):
        # 2^[n] has fewer than six sets, so no six-sequence exists
        with pytest.raises(ValueError, match="distinct subsets"):
            _draw_zigzag(random.Random(0), n, 6)

    def test_lengths_up_to_the_lattice_size(self):
        rng = random.Random(3)
        for n, length in ((1, 2), (2, 4), (3, 8)):
            seq = _draw_zigzag(rng, n, length)[0]
            assert len(set(seq)) == length
            assert all(a & b in (a, b) for a, b in zip(seq, seq[1:]))
        with pytest.raises(ValueError):
            _draw_zigzag(rng, 3, 0)

    def test_all_zigzags_match_scan(self):
        scanned = [
            seq for seq in itertools.permutations(range(8), 6)
            if all(a & b in (a, b) for a, b in zip(seq, seq[1:]))
        ]
        assert [seq for seq, _ in lattice_walks(3)] == [list(seq) for seq in scanned]

    def test_n3_walks_carry_their_containment_order(self):
        expect = [(seq, _order(seq)) for seq in reference_all_zigzags(3)]
        assert list(lattice_walks(3)) == expect and len(expect) == 2148
        # and against the recursive walker at every n and length up to 4 and 6
        for n in range(1, 5):
            for length in range(1, 7):
                expect = [(seq, _order(seq)) for seq in reference_all_zigzags(n, length)]
                assert list(lattice_walks(n, length)) == expect, (n, length)

    @pytest.mark.parametrize("seed", (0, 7, 1940964428))
    def test_draws_keep_the_randrange_stream(self, seed):
        # every seed draws the sequences and orders that rng.randrange drew,
        # and leaves the generator in the same state
        fast, slow = random.Random(seed), random.Random(seed)
        for n in range(4, 9):
            for _ in range(2000):
                assert _draw_zigzag(fast, n, 6) == reference_draw_zigzag(slow, n, 6)
        assert fast.getstate() == slow.getstate()


def scan_graph_path(fam, length):
    """_find_graph_path as a scan of member permutations, from the same starts in turn."""
    ms = fam.members
    for comp in comparability_components(fam):
        if len(comp) < length:
            continue
        for v in comp:
            for rest in itertools.permutations([j for j in range(len(ms)) if j != v], length - 1):
                path = (v, *rest)
                if all(ms[a] & ms[b] in (ms[a], ms[b]) for a, b in zip(path, path[1:])):
                    return tuple(ms[i] for i in path)
    return None


class TestGraphPath:
    def test_matches_permutation_scan(self):
        rng = random.Random(17)
        found = set()  # the lengths at which some path was found
        for _ in range(200):
            n = rng.randint(1, 4)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(1, min(10, 1 << n))))
            for length in range(2, 7):
                path = _find_graph_path(fam, length)
                assert path == scan_graph_path(fam, length)
                if path is not None:
                    found.add(length)
        assert found == set(range(2, 7))  # the scan is not vacuous


class TestErdosGallai:
    def test_p5_construction_bound(self):
        assert erdos_gallai_check(p5_construction(6))

    def test_antichain_trivial(self):
        assert erdos_gallai_check(level_family(4, [2]))

    def test_path_detected(self):
        with pytest.raises(NotFreeError):
            erdos_gallai_check(SetFamily(3, [0, 1, 3, 7, 5, 4]))


class TestP5ComponentReport:
    def test_p5_construction_n6(self):
        reports = p5_component_report(p5_construction(6))
        assert len(reports) == 6
        for rep in reports:
            assert rep.containments == 5
            assert rep.hull_size == 4
            assert rep.chains_meeting_hull == 120
            assert rep.ratio == Fraction(1)
            assert rep.max_antichain == 2
            # a 2-cube block is neither type: hull has 4 < 5 = c elements and
            # the antichain covers only 2 of the needed 5c/6 members
            assert not rep.type_one and not rep.type_two
            assert not rep.below_threshold

    def test_refuses_non_free(self):
        with pytest.raises(NotFreeError):
            p5_component_report(SetFamily(3, [0, 1, 3, 7, 5]))

    def test_chain_oracle_cap(self):
        reports = p5_component_report(p5_construction(8))
        assert len(reports) == 20
        # each hull is an interval from a 3-set to a 5-set: 8! / C(6, 3) chains meet it
        assert all(rep.containments == 5 and rep.chains_meeting_hull == 2016 for rep in reports)
        with pytest.raises(ValueError, match="n <= 8 for the chain oracle"):
            p5_component_report(p5_construction(9))

    def test_singleton_component(self):
        (rep,) = p5_component_report(SetFamily(4, [3]))
        assert rep.containments == 0 and rep.ratio is None
        assert rep.max_antichain == 1


class TestVerifiers:
    def test_sublattice(self):
        rep = verify_sublattice()
        assert rep.failures == 0 and rep.instances_checked == 960

    def test_chaincount(self):
        rep = verify_chaincount(seed=0)
        assert rep.failures == 0 and rep.instances_checked == 3516

    def test_coloring(self):
        rep = verify_coloring(seed=0)
        assert rep.failures == 0 and rep.instances_checked == 1268

    def test_zigzag(self):
        rep = verify_zigzag(seed=0)
        assert rep.failures == 0 and rep.instances_checked == 12148

    def test_nfree_components(self):
        rep = verify_nfree_components(seed=0)
        assert rep.failures == 0 and rep.instances_checked == 656

    def test_erdos_gallai(self):
        rep = verify_erdos_gallai(seed=0)
        assert rep.failures == 0 and rep.instances_checked == 581

    @pytest.mark.parametrize("seed, checked", [(1, 575), (7, 573)])
    def test_erdos_gallai_other_seeds(self, seed, checked):
        rep = verify_erdos_gallai(seed=seed)
        assert rep.failures == 0 and rep.instances_checked == checked

    @pytest.mark.parametrize("short", (0, 1))
    def test_chaincount_fails_just_below_the_exact_bound(self, short, monkeypatch):
        # a count one below the bound's ceiling fails every instance, and the
        # message prints the exact bound; a count at the ceiling passes
        monkeypatch.setattr(proofcheck, "chains_meeting",
                            lambda fam: math.ceil(katona_nagy(fam.n, len(fam))) - short)
        rep = verify_chaincount(seed=0)
        assert rep.failures == 3516 * short
        assert rep.first_failure == ("n=4 F=[0]: 3 < 4" if short else None)

    def test_chaincount_forms_each_bound_once(self, monkeypatch):
        pairs = []

        def counted(n, t):
            pairs.append((n, t))
            return katona_nagy(n, t)

        monkeypatch.setattr(proofcheck, "katona_nagy", counted)
        rep = verify_chaincount(seed=0)
        assert rep.failures == 0 and rep.instances_checked == 3516
        assert sorted(pairs) == sorted(set(pairs)) and len(pairs) == 16

    def test_erdos_gallai_forms_the_minimal_list_once(self, monkeypatch):
        lists = []

        def counted(forbidden):
            lists.append(len(forbidden))
            return minimal_posets(forbidden)

        monkeypatch.setattr(proofcheck, "minimal_posets", counted)
        monkeypatch.setattr(embedding, "minimal_posets", counted)  # is_free's
        rep = verify_erdos_gallai(seed=0)
        assert rep.failures == 0 and rep.instances_checked == 581
        assert lists == [16]

    def test_verify_all_order(self, monkeypatch, capsys):
        # verify --lemma all calls each verifier once, in name order, with the seed
        calls = []

        def fake(name):
            return lambda seed: calls.append((name, seed)) or LemmaReport(name, 1, 0, seed)

        for name in cli.LEMMAS:
            monkeypatch.setitem(proofcheck.VERIFIERS, name, fake(name))
        assert run_command(["verify", "--lemma", "all", "--seed", "1"]) == 0
        assert calls == [(name, 1) for name in sorted(proofcheck.VERIFIERS)]
        assert len(capsys.readouterr().out.splitlines()) == len(calls)

    def test_report_json(self):
        rep = verify_sublattice()
        data = rep.to_json()
        assert data["lemma"] == "sublattice" and data["failures"] == 0


def test_cli_lemmas_are_the_verifier_names():
    # cli keeps the names so that building its parser does not import proofcheck
    assert cli.LEMMAS == tuple(sorted(proofcheck.VERIFIERS))


class TestHarness:
    def test_counts_failures_and_keeps_the_first(self):
        rep = _run_suite(
            "demo", 3, [(i,) for i in range(7)], lambda i: f"bad {i}" if i % 3 == 1 else None
        )
        assert (rep.instances_checked, rep.failures, rep.first_failure) == (7, 2, "bad 1")
        assert rep.to_json() == {
            "lemma": "demo", "instances_checked": 7, "failures": 2, "seed": 3,
            "first_failure": "bad 1",
        }

    def test_clean_run_has_no_first_failure(self):
        rep = _run_suite("demo", None, [(1, 2), (3, 4)], lambda a, b: None)
        assert rep == LemmaReport("demo", 2, 0)
        assert "first_failure" not in rep.to_json()


# `posetturan verify --lemma all` stdout, pinned per seed
VERIFY_ALL = {
    0: """\
{"failures": 0, "instances_checked": 3516, "lemma": "chaincount", "seed": 0}
{"failures": 0, "instances_checked": 1268, "lemma": "coloring", "seed": 0}
{"failures": 0, "instances_checked": 581, "lemma": "erdos-gallai", "seed": 0}
{"failures": 0, "instances_checked": 656, "lemma": "nfree-components", "seed": 0}
{"failures": 0, "instances_checked": 960, "lemma": "sublattice", "seed": null}
{"failures": 0, "instances_checked": 12148, "lemma": "zigzag", "seed": 0}
""",
    1: """\
{"failures": 0, "instances_checked": 3516, "lemma": "chaincount", "seed": 1}
{"failures": 0, "instances_checked": 1268, "lemma": "coloring", "seed": 1}
{"failures": 0, "instances_checked": 575, "lemma": "erdos-gallai", "seed": 1}
{"failures": 0, "instances_checked": 656, "lemma": "nfree-components", "seed": 1}
{"failures": 0, "instances_checked": 960, "lemma": "sublattice", "seed": null}
{"failures": 0, "instances_checked": 12148, "lemma": "zigzag", "seed": 1}
""",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_ALL))
def test_verify_all_stdout_pinned(seed, capsys):
    assert run_command(["verify", "--lemma", "all", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == VERIFY_ALL[seed]

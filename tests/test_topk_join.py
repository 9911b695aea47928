"""Tests for the top-K star join operator (`repro.algorithms.topk_join`).

Includes a reconstruction of the paper's Figure 5 / section IV-B
walkthrough: the group bound unblocks the second result earlier than the
classic HRJN bound.  The operator in `src/` is block-at-a-time; the
walkthrough is tuple-granular, so those tests run it with one-tuple
blocks (the `one_tuple_blocks` fixture).  `TestListInput` and the
tuple-level cursor-policy test pin the per-tuple reference kept in
`tests/reference_topk.py`.
"""

import numpy as np
import pytest

from repro.algorithms import topk_join as block_module
from repro.algorithms.topk_join import CLASSIC, GROUP, BlockStarJoin
from tests.reference_topk import ListInput, TopKStarJoin
from tests.reference_topk import topk_join as per_tuple_topk_join

# Three relations in the spirit of Figure 5.  Scores descend; ids join
# across all three.  Constructed so that after six retrievals the
# snapshot matches the paper's narrative: id 2 completes with 2.5, id 1
# with 2.2, the bucket holds id 3 seen in R1+R3 (1.0 + 0.6) and id 4
# seen in R2 (0.8).
R1 = [(2, 1.0), (3, 1.0), (1, 0.9), (4, 0.5)]
R2 = [(2, 0.8), (1, 0.8), (4, 0.8), (3, 0.4)]
R3 = [(2, 0.7), (3, 0.6), (1, 0.5), (4, 0.3)]


def ranked(relation):
    """A list of (id, score) tuples as the operator's (ids, scores)."""
    return ([key for key, _ in relation], [score for _, score in relation])


def block_join(relations, target_k, bound_mode=GROUP):
    return BlockStarJoin([ranked(r) for r in relations], target_k,
                         bound_mode)


def drain(join):
    """Pull until exhausted; {id: (score, per-input scores)}."""
    done = {}
    while join.pull():
        ids, witness = join.take_completed()
        for key, scores in zip(ids.tolist(), witness.T.tolist()):
            assert key not in done
            done[key] = (join.ops.complete(scores), scores)
    return done


def topk_join(relations, k, bound_mode=GROUP):
    """Standalone driver: pull until K results can be *emitted* (score
    >= threshold for the still-unseen results) or the inputs are dry.
    Returns the emitted (id, score) pairs and the tuples retrieved."""
    join = block_join(relations, k, bound_mode)
    emitted, buffer = [], []
    while len(emitted) < k and join.pull():
        ids, witness = join.take_completed()
        buffer += [(join.ops.complete(scores), key)
                   for key, scores in zip(ids.tolist(), witness.T.tolist())]
        buffer.sort(reverse=True)
        bound = join.threshold()
        while buffer and len(emitted) < k and buffer[0][0] >= bound:
            score, key = buffer.pop(0)
            emitted.append((key, score))
    return emitted, join.tuples_retrieved


@pytest.fixture
def one_tuple_blocks(monkeypatch):
    monkeypatch.setattr(block_module, "BLOCK_START", 1)
    monkeypatch.setattr(block_module, "BLOCK_CAP", 1)


class TestListInput:
    def test_pop_and_peek(self):
        inp = ListInput([(1, 0.9), (2, 0.5)])
        assert inp.peek_score() == pytest.approx(0.9)
        assert inp.pop() == (1, 0.9)
        assert inp.peek_score() == pytest.approx(0.5)
        inp.pop()
        assert inp.peek_score() is None
        assert inp.pop() is None

    def test_unsorted_raises(self):
        with pytest.raises(ValueError):
            ListInput([(1, 0.5), (2, 0.9)])
        with pytest.raises(ValueError):
            block_join([[(1, 0.5), (2, 0.9)]], 1)


class TestStarJoinMechanics:
    def test_completion_sums_scores(self):
        scores = {key: score for key, (score, _)
                  in drain(block_join((R1, R2, R3), 10)).items()}
        assert scores[2] == pytest.approx(2.5)
        assert scores[1] == pytest.approx(2.2)
        assert scores[3] == pytest.approx(2.0)
        assert scores[4] == pytest.approx(1.6)

    def test_first_seen_score_wins_duplicates(self):
        # A duplicate id within one input keeps only its first (max) score.
        r1 = [(1, 0.9), (1, 0.4)]
        r2 = [(1, 0.8)]
        done = drain(block_join((r1, r2), 10))
        assert list(done) == [1]
        assert done[1][0] == pytest.approx(1.7)

    def test_id_cannot_complete_twice(self, one_tuple_blocks):
        # One-tuple blocks: the second occurrences arrive in later
        # blocks, after the id has completed.
        r1 = [(1, 0.9), (1, 0.8)]
        r2 = [(1, 0.9), (1, 0.8)]
        join = block_join((r1, r2), 10)
        assert list(drain(join)) == [1]  # drain asserts no repeat
        assert join.completed == 1
        assert join.tuples_retrieved == 4

    def test_per_input_scores_recorded(self):
        done = drain(block_join((R1, R2, R3), 10))
        assert done[2][1] == [1.0, 0.8, 0.7]

    def test_round_robin_until_target(self, one_tuple_blocks):
        join = block_join((R1, R2, R3), target_k=10)
        reference = TopKStarJoin([ListInput(r) for r in (R1, R2, R3)],
                                 target_k=10)
        for _ in range(3):
            join.pull()
            reference.step()
        # One tuple from each input under round-robin.
        assert join.tuples_retrieved == reference.tuples_retrieved == 3
        assert join._pos == [1, 1, 1]
        assert all(inp._pos == 1 for inp in reference.inputs)

    def test_invalid_bound_mode(self):
        with pytest.raises(ValueError):
            block_join([R1], 1, bound_mode="nope")

    def test_no_inputs_raises(self):
        with pytest.raises(ValueError):
            BlockStarJoin([], 1)


class TestBounds:
    @pytest.fixture(autouse=True)
    def _tuple_granular(self, one_tuple_blocks):
        pass

    def _advance(self, bound_mode, steps):
        join = block_join((R1, R2, R3), 2, bound_mode)
        for _ in range(steps):
            join.pull()
        return join

    def test_paper_snapshot_classic_bound(self):
        """After three round-robin sweeps (nine tuples), the classic
        bound is max_i(s^i + sum of other maxima): s = (0.5, 0.4, 0.3),
        maxima (1.0, 0.8, 0.7) -> max(2.0, 2.1, 2.1) = 2.1."""
        join = self._advance(CLASSIC, 9)
        assert join.threshold() == pytest.approx(2.1)

    def test_paper_snapshot_group_bound_tighter(self):
        """The group bound sees the partials, as in the paper's Figure 5
        walkthrough: G{1,3} = (3, 1.6) needs s^2, G{2} = (4, 0.8) needs
        s^1 + s^3 -> max(1.6 + 0.4, 0.8 + 0.8, 1.2) = 2.0, strictly
        tighter than the classic 2.1."""
        join = self._advance(GROUP, 9)
        assert join.threshold() == pytest.approx(2.0)
        assert join.progress() == {"tuples_retrieved": 9, "completed": 2,
                                   "pending": 2, "groups": 2}

    def test_group_bound_never_looser(self):
        for steps in range(1, 12):
            classic = self._advance(CLASSIC, steps)
            group = self._advance(GROUP, steps)
            assert group.threshold() <= classic.threshold() + 1e-12

    def test_bounds_sound(self):
        """Any result not yet completed scores below the threshold."""
        for mode in (CLASSIC, GROUP):
            join = block_join((R1, R2, R3), 2, mode)
            final = {2: 2.5, 1: 2.2, 3: 2.0, 4: 1.6}
            done = set()
            while join.pull():
                done.update(join.take_completed()[0].tolist())
                bound = join.threshold()
                assert bound >= join.unseen_bound()
                for key, score in final.items():
                    if key not in done:
                        assert score <= bound + 1e-9

    def test_exhausted_threshold_is_minus_inf(self):
        join = block_join((R1, R2, R3), 10)
        drain(join)
        assert join.threshold() == -float("inf")
        assert not join.pull()

    def test_dead_partials_dropped_when_input_dries(self):
        r1 = [(1, 0.9)]
        r2 = [(2, 0.8), (1, 0.7)]
        join = block_join((r1, r2), 5, GROUP)
        done = drain(join)
        # id 2 was seen only in r2 and r1 is exhausted: no valid bound
        # remains for it.
        assert join.threshold() == -float("inf")
        assert set(done) == {1}


class TestAgainstPerTupleReference:
    @pytest.mark.parametrize("n_inputs", [3, 17], ids=["table", "sorted"])
    @pytest.mark.parametrize("mode", [GROUP, CLASSIC])
    def test_lockstep_thresholds_and_results(self, one_tuple_blocks, mode,
                                             n_inputs):
        """One tuple a pull, the block join walks the reference's path:
        same completions, a threshold that is never looser (its
        ms(G_P) is exact, the reference's a stale-high cache) and
        always sound.  17 inputs take the group arithmetic past the
        mask-indexed table (k <= 16) onto the sorted fallback."""
        rng = np.random.default_rng(n_inputs)
        relations = []
        for _ in range(n_inputs):
            # ids 0 and 1 are in every relation, so something completes
            ids = rng.permutation(np.concatenate(
                ([0, 1], 2 + rng.permutation(6)[:rng.integers(2, 7)])))
            scores = np.sort(rng.integers(1, 40, len(ids)))[::-1] / 8.0
            relations.append(list(zip(ids.tolist(), scores.tolist())))
        final = {}
        for key in range(8):
            rows = [dict(r).get(key) for r in relations]
            if None not in rows:
                final[key] = sum(rows)
        join = block_join(relations, 3, mode)
        reference = TopKStarJoin([ListInput(r) for r in relations], 3, mode)
        done = {}
        while join.pull():
            assert reference.step()
            ids, witness = join.take_completed()
            done.update(zip(ids.tolist(), witness.sum(axis=0).tolist()))
            assert set(done) == {c.key for c in reference.completed}
            bound = join.threshold()
            assert bound <= reference.threshold() + 1e-9
            assert all(score <= bound + 1e-9
                       for key, score in final.items() if key not in done)
        assert join.tuples_retrieved == reference.tuples_retrieved
        assert done == pytest.approx(final) and len(final) >= 2


class TestTopKJoinDriver:
    def test_emits_in_score_order(self):
        emitted, _ = topk_join([R1, R2, R3], k=4)
        assert [key for key, _ in emitted] == [2, 1, 3, 4]
        scores = [score for _, score in emitted]
        assert scores == sorted(scores, reverse=True)

    def test_k_limits_output(self):
        emitted, _ = topk_join([R1, R2, R3], k=2)
        assert [key for key, _ in emitted] == [2, 1]

    def test_group_bound_retrieves_no_more_than_classic(
            self, one_tuple_blocks):
        _, group_cost = topk_join([R1, R2, R3], k=2, bound_mode=GROUP)
        _, classic_cost = topk_join([R1, R2, R3], k=2, bound_mode=CLASSIC)
        assert group_cost <= classic_cost

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_group_never_retrieves_more(self, seed):
        """Section IV-B one retrieval at a time (per-tuple reference)."""
        rng = np.random.default_rng(seed)
        relations = []
        for _ in range(3):
            ids = rng.permutation(2000)
            scores = np.sort(rng.exponential(1.0, size=2000))[::-1]
            relations.append([(int(i), float(s))
                              for i, s in zip(ids, scores)])
        _, group_cost = per_tuple_topk_join(relations, 10, GROUP)
        _, classic_cost = per_tuple_topk_join(relations, 10, CLASSIC)
        assert group_cost <= classic_cost

    def test_early_termination_beats_full_scan(self):
        # Large correlated relations: top-1 must not read everything.
        n = 2000
        big = [[(i, 1000.0 - i) for i in range(n)] for _ in range(2)]
        emitted, cost = topk_join(big, k=1)
        assert emitted[0][0] == 0
        assert cost < 2 * n / 10

    def test_single_relation(self):
        emitted, _ = topk_join([[(5, 0.9), (6, 0.4)]], k=1)
        assert [key for key, _ in emitted] == [5]
        assert emitted[0][1] == pytest.approx(0.9)

    def test_blocks_double_to_the_cap(self):
        ids = np.arange(3 * block_module.BLOCK_CAP)
        join = BlockStarJoin([(ids, -ids.astype(float))], 10 ** 9)
        sizes = []
        while join.pull():
            sizes.append(join.tuples_retrieved - sum(sizes))
        start, cap = block_module.BLOCK_START, block_module.BLOCK_CAP
        doubling = [start << i for i in range(20) if start << i < cap]
        assert sizes[:len(doubling)] == doubling
        assert set(sizes[len(doubling):-1]) == {cap}
        assert sum(sizes) == len(ids)

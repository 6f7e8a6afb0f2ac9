"""Differential tests for the type-A verify path.

Three rewrites must be invisible to every caller:

* the inversion-free (Jacobian) Miller loop — after the final
  exponentiation it must agree with the affine reference loop kept below,
  on subgroup pairs, and on off-subgroup and small-order points it must
  raise ``ValueError`` exactly where the reference fails;
* the key-driven pairings — ``pair`` and ``multi_pair`` walk each G2
  argument's Miller lines once (cached on the group) and evaluate them at
  the G1 argument; for subgroup inputs they must give the reference loop's
  reduced values and the same tallies, a point outside G1 must pair as its
  G1 component, and (0, 0) must contribute 1;
* the fused ``hash_msm`` — one MSM over the raw try-and-increment points
  and a single cofactor clearing must give the same point, and the same
  tallies apart from ``cofactor_clear``, as hashing every message and
  running ``multi_exp``.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.accounting import CostTracker
from repro.core.parallel import WorkerPool
from repro.core.params import setup
from repro.crypto.threshold import (
    batch_verify_shares,
    distribute_key,
    sign_share,
    verify_share,
)
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup
from repro.pairing.interface import LINE_CACHE_KEYS, GroupElement, OperationCounter

_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Primes dividing the cofactor h of each parameter set (4 | h always).
_SMALL_FACTORS = {"toy-64": (2, 31, 409), "test-80": (2, 3, 37), "paper-160": (2, 13, 41)}


def reference_miller_loop(group, p, q_point):
    """The affine Miller loop the Jacobian one replaced (one inversion per
    step), kept verbatim as the oracle."""
    q = group.q
    xp, yp = p
    xq, yq = q_point
    fa, fb = 1, 0
    tx, ty = xp, yp
    r = group.order
    for bit_index in range(r.bit_length() - 2, -1, -1):
        lam = (3 * tx * tx + 1) * pow(2 * ty, -1, q) % q
        la = (lam * (xq + tx) - ty) % q
        lb = yq
        sa = (fa + fb) * (fa - fb) % q
        sb = 2 * fa * fb % q
        fa = (sa * la - sb * lb) % q
        fb = (sa * lb + sb * la) % q
        nx = (lam * lam - 2 * tx) % q
        ty = (lam * (tx - nx) - ty) % q
        tx = nx
        if (r >> bit_index) & 1:
            if tx == xp:
                if (ty + yp) % q == 0:
                    tx, ty = None, None
                    continue
                lam = (3 * tx * tx + 1) * pow(2 * ty, -1, q) % q
            else:
                lam = (ty - yp) * pow(tx - xp, -1, q) % q
            la = (lam * (xq + xp) - yp) % q
            lb = yq
            fa, fb = (fa * la - fb * lb) % q, (fa * lb + fb * la) % q
            nx = (lam * lam - tx - xp) % q
            ty = (lam * (tx - nx) - ty) % q
            tx = nx
    return (fa, fb)


def _group(name):
    return TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS[name])


_GROUPS = {name: _group(name) for name in ("toy-64", "test-80")}


def _reduced(group, f):
    """The final exponentiation, or the exception type it raises."""
    try:
        return group._final_exponentiation(f)
    except ValueError:
        return ValueError


def assert_loops_agree(group, p, q_point):
    """Reference raises ⇒ the new loop raises ValueError; otherwise both
    loops reduce to the same GT value."""
    try:
        expected = reference_miller_loop(group, p, q_point)
    except (ValueError, TypeError):
        with pytest.raises(ValueError):
            group._miller_loop(p, q_point)
        return False
    assert _reduced(group, group._miller_loop(p, q_point)) == _reduced(group, expected)
    return True


def _raw_point(group, seed: int):
    """A curve point outside the order-r subgroup (before cofactor clearing)."""
    return group._hash_to_curve(b"raw-%d" % seed)


def _small_order_points(group, name):
    """Points of order dividing d for small d | h, from a few raw points."""
    points = set()
    cofactor_part = group.order * group.params.h
    for seed in range(3):
        raw = _raw_point(group, seed)
        for d in _SMALL_FACTORS[name]:
            for power in (d, d * d, 2 * d, 4 * d):
                if group.params.h % power == 0:
                    pt = group._scalar_mul(raw, cofactor_part // power)
                    if pt is not None:
                        points.add(pt)
    points.add((0, 0))  # the F_q-rational 2-torsion point of y² = x³ + x
    return sorted(points)


class TestMillerLoopDifferential:
    @pytest.mark.parametrize("name", sorted(_GROUPS))
    @_SETTINGS
    @given(a=st.integers(min_value=1), b=st.integers(min_value=1))
    def test_subgroup_pairs_match_reference(self, name, a, b):
        group = _GROUPS[name]
        p = group.g1() ** a
        q = group.g2() ** b
        if p.is_identity() or q.is_identity():
            return
        assert assert_loops_agree(group, p.point, q.point)

    @pytest.mark.parametrize("name", sorted(_GROUPS))
    @_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10**6), b=st.integers(min_value=1))
    def test_off_subgroup_points_match_or_raise(self, name, seed, b):
        group = _GROUPS[name]
        q = (group.g2() ** b).point
        raw = _raw_point(group, seed)
        if q is not None:
            assert_loops_agree(group, raw, q)
            assert_loops_agree(group, q, raw)
        assert_loops_agree(group, raw, _raw_point(group, seed + 1))

    @pytest.mark.parametrize("name", ["toy-64", "test-80"])
    def test_small_order_points_raise_where_reference_does(self, name):
        group = _GROUPS[name]
        q = group.g2().point
        outcomes = [assert_loops_agree(group, p, q) for p in _small_order_points(group, name)]
        # Both branches are exercised: some small-order P make the
        # reference fail, and the new loop raised ValueError for each.
        assert False in outcomes

    def test_two_torsion_point_raises(self):
        group = _GROUPS["toy-64"]
        with pytest.raises(ValueError):
            group._miller_loop((0, 0), group.g2().point)

    @pytest.mark.slow
    def test_paper_160_pairs_match_reference(self, paper_group):
        rng = random.Random(160)
        for _ in range(3):
            p = paper_group.random_g1(rng)
            q = paper_group.random_g2(rng)
            assert assert_loops_agree(paper_group, p.point, q.point)
        for p in _small_order_points(paper_group, "paper-160")[:4]:
            assert_loops_agree(paper_group, p, paper_group.g2().point)

    @pytest.mark.slow
    def test_addition_step_meeting_t_equal_p(self, paper_group):
        """For P of order 103 (103 | h at paper-160) some addition step
        finds T = P and takes the tangent line, and the reference loop
        still runs to the end, so that branch has a value to compare (no
        divisor of h at toy-64 or test-80 reaches it)."""
        raw = _raw_point(paper_group, 0)
        p = paper_group._scalar_mul(raw, paper_group.order * paper_group.params.h // 103)
        assert p is not None and paper_group._scalar_mul(p, 103) is None
        assert assert_loops_agree(paper_group, p, paper_group.g2().point)


def _reference_pair(group, p, q_point):
    """e(p, q) from the affine reference loop, driven by p."""
    return group._final_exponentiation(reference_miller_loop(group, p, q_point))


def _g1_component(group, point):
    """The order-r part of a curve point: [h·(h⁻¹ mod r)]·P."""
    h, r = group.params.h, group.order
    return group._scalar_mul(point, h * pow(h, -1, r))


def _g1(group, point):
    return GroupElement(group, point, "g1")


def _g2(group, point):
    return GroupElement(group, point, "g2")


_KEY_SCALARS = st.sampled_from([1, 2, 3, 5, 7, 11])  # few keys, so walks are reused


class TestKeyedPairing:
    @pytest.mark.parametrize("name", sorted(_GROUPS))
    @_SETTINGS
    @given(terms=st.lists(st.tuples(st.integers(min_value=1), _KEY_SCALARS),
                          min_size=1, max_size=4))
    def test_pair_and_multi_pair_match_reference(self, name, terms):
        group = _GROUPS[name]
        pairs = [(group.g1() ** a, group.g2() ** b) for a, b in terms]
        expected = group._gt_one()
        for p, q in pairs:
            reduced = (group._gt_one() if p.is_identity()
                       else _reference_pair(group, p.point, q.point))
            assert group.pair(p, q).value == reduced
            expected = group._gt_mul(expected, reduced)
        assert group.multi_pair(pairs).value == expected

    @pytest.mark.parametrize("name", sorted(_GROUPS))
    @_SETTINGS
    @given(a=st.integers(min_value=1), b=st.integers(min_value=1))
    def test_symmetric(self, name, a, b):
        group = _GROUPS[name]
        p, q = (group.g1() ** a).point, (group.g1() ** b).point
        assert group.pair(_g1(group, p), _g2(group, q)) == group.pair(_g1(group, q), _g2(group, p))

    @pytest.mark.parametrize("name", sorted(_GROUPS))
    @_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10**6), b=st.integers(min_value=1))
    def test_off_subgroup_argument_pairs_as_its_g1_component(self, name, seed, b):
        group = _GROUPS[name]
        raw = _raw_point(group, seed)
        component = _g1_component(group, raw)
        q = group.g2() ** b
        as_g1 = group.pair(_g1(group, raw), q)
        assert as_g1 == group.pair(_g1(group, component), q)
        if not q.is_identity():
            # The reduced Tate pairing erases the small-order part of its
            # evaluation point: the reference driven by q agrees.
            assert as_g1.value == _reference_pair(group, q.point, raw)
        # In the G2 slot too: a walked point outside G1 is walked as its component.
        p = group.g1() ** b
        assert group.pair(p, _g2(group, raw)) == group.pair(p, _g2(group, component))

    @pytest.mark.parametrize("name", ["toy-64", "test-80"])
    def test_small_order_arguments_contribute_one(self, name):
        """Every point of small order, (0, 0) included, pairs to 1 in
        either slot, like O."""
        group = _GROUPS[name]
        p, q = group.g1() ** 3, group.g2() ** 5
        for point in _small_order_points(group, name):
            assert group.pair(_g1(group, point), q).is_identity()
            assert group.pair(p, _g2(group, point)).is_identity()
            assert group.multi_pair([(p, q), (_g1(group, point), q)]) == group.pair(p, q)

    def test_cache_is_bounded_and_an_evicted_key_pairs_the_same(self):
        group = _group("toy-64")
        p = group.g1() ** 7
        keys = [group.g2() ** (i + 2) for i in range(LINE_CACHE_KEYS + 3)]
        first = [group.pair(p, key) for key in keys]
        assert len(group._line_cache) == LINE_CACHE_KEYS
        assert keys[0].point not in group._line_cache
        assert [group.pair(p, key) for key in keys] == first
        assert len(group._line_cache) == LINE_CACHE_KEYS

    def test_recently_used_key_is_kept(self):
        group = _group("toy-64")
        p, g = group.g1() ** 7, group.g2()
        for i in range(2 * LINE_CACHE_KEYS):
            group.pair(p, g)
            group.pair(p, group.g2() ** (i + 2))
        assert g.point in group._line_cache

    def test_one_miller_pass_per_pairing_call(self, monkeypatch):
        """Each pair/multi_pair call runs one evaluation and one final
        exponentiation; each key is walked once."""
        group = _group("toy-64")
        calls = {"walk": 0, "final": 0}
        walk, final = group._lines, group._final_exponentiation

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(group, "_lines", counted("walk", walk))
        monkeypatch.setattr(group, "_final_exponentiation", counted("final", final))
        pk = group.g2() ** 9
        for i in range(3):
            group.multi_pair([(group.g1() ** (i + 1), group.g2()), (group.g1() ** 4, pk)])
        assert calls == {"walk": 2, "final": 3}

    @pytest.mark.slow
    def test_paper_160_matches_reference(self, paper_group):
        rng = random.Random(161)
        pk = paper_group.random_g2(rng)
        pairs = [(paper_group.random_g1(rng), q) for q in (pk, paper_group.g2(), pk)]
        expected = paper_group._gt_one()
        for p, q in pairs:
            reduced = _reference_pair(paper_group, p.point, q.point)
            assert paper_group.pair(p, q).value == reduced
            expected = paper_group._gt_mul(expected, reduced)
        assert paper_group.multi_pair(pairs).value == expected
        raw = _raw_point(paper_group, 1)
        assert paper_group.pair(_g1(paper_group, raw), pk) == paper_group.pair(
            _g1(paper_group, _g1_component(paper_group, raw)), pk)


class TestThresholdPairingTallies:
    """Eq. 10 and Eq. 14 moved onto ``pairings_equal`` and one
    ``multi_pair``; their Pair tallies must not move."""

    @pytest.fixture()
    def shares(self):
        group = _group("toy-64")
        rng = random.Random(14)
        keys = distribute_key(group, w=4, t=3, rng=rng)
        blinded = [group.random_g1(rng) for _ in range(3)]
        return group, keys, blinded, rng

    def test_verify_share_is_two_pairings(self, shares):
        group, keys, blinded, _ = shares
        share = sign_share(blinded[0], keys.shares[1])
        with CostTracker(group) as tracker:
            assert verify_share(group, blinded[0], share, keys.share_pks[1])
            assert not verify_share(group, blinded[1], share, keys.share_pks[1])
        assert tracker.pairings == 4

    def test_batch_verify_shares_is_t_plus_one_pairings_in_one_product(self, shares, monkeypatch):
        group, keys, blinded, rng = shares
        t = keys.t
        by_sem = {j: [sign_share(m, keys.shares[j]) for m in blinded] for j in range(t)}
        pks = {j: keys.share_pks[j] for j in range(t)}
        finals = []
        final = group._final_exponentiation
        monkeypatch.setattr(group, "_final_exponentiation",
                            lambda f: finals.append(f) or final(f))
        with CostTracker(group) as tracker:
            assert batch_verify_shares(group, blinded, by_sem, pks, rng)
        assert tracker.pairings == t + 1
        assert len(finals) == 1
        by_sem[1][2] = by_sem[1][2] * group.g1()
        assert not batch_verify_shares(group, blinded, by_sem, pks, rng)


def _tallied(group, fn):
    counter = OperationCounter()
    group.attach_counter(counter)
    try:
        result = fn()
    finally:
        group.detach_counter()
    return result, counter.snapshot()


def _per_message(group, messages, exponents):
    return group.multi_exp([group.hash_to_g1(m) for m in messages], exponents)


def _without_cofactor(ops):
    return {k: v for k, v in ops.items() if k != "cofactor_clear"}


class TestHashMsm:
    @pytest.mark.parametrize("name", sorted(_GROUPS))
    @_SETTINGS
    @given(
        terms=st.lists(
            st.tuples(st.binary(max_size=12), st.integers(min_value=-(2**90), max_value=2**90)),
            min_size=1,
            max_size=12,
        )
    )
    def test_matches_per_message_hash_and_multi_exp(self, name, terms):
        group = _GROUPS[name]
        messages = [m for m, _ in terms]
        exponents = [e for _, e in terms]
        expected, expected_ops = _tallied(group, lambda: _per_message(group, messages, exponents))
        fused, fused_ops = _tallied(group, lambda: group.hash_msm(messages, exponents))
        assert fused == expected
        assert _without_cofactor(fused_ops) == _without_cofactor(expected_ops)
        assert expected_ops["cofactor_clear"] == len(messages)
        assert fused_ops["cofactor_clear"] == 1

    def test_zero_negative_and_order_multiple_exponents(self):
        group = _GROUPS["toy-64"]
        r = group.order
        messages = [b"a", b"b", b"c", b"d", b"e"]
        exponents = [0, -1, r, -(r + 5), 7]
        expected, expected_ops = _tallied(group, lambda: _per_message(group, messages, exponents))
        fused, fused_ops = _tallied(group, lambda: group.hash_msm(messages, exponents))
        assert fused == expected
        assert fused_ops["exp_g1_skipped"] == expected_ops["exp_g1_skipped"] == 2
        assert _without_cofactor(fused_ops) == _without_cofactor(expected_ops)

    def test_all_zero_exponents_give_identity(self):
        group = _GROUPS["toy-64"]
        assert group.hash_msm([b"a", b"b"], [0, 0]).is_identity()

    def test_point_memo_hashes_each_message_once(self):
        group = _GROUPS["toy-64"]
        messages = [b"a", b"b", b"c"]
        points = {}
        first, first_ops = _tallied(group, lambda: group.hash_msm(messages, [2, 3, 5], points))
        assert first == group.hash_msm(messages, [2, 3, 5])
        assert first_ops["hash_to_g1"] == 3 and sorted(points) == messages
        again, again_ops = _tallied(
            group, lambda: group.hash_msm([b"c", b"d"], [5, 7], points))
        assert again == group.hash_msm([b"c", b"d"], [5, 7])
        assert again_ops["hash_to_g1"] == 1 and again_ops["cofactor_clear"] == 1

    def test_shape_errors(self):
        group = _GROUPS["toy-64"]
        with pytest.raises(ValueError, match="equal length"):
            group.hash_msm([b"a"], [1, 2])
        with pytest.raises(ValueError, match="at least one term"):
            group.hash_msm([], [])

    @pytest.mark.slow
    def test_paper_160_matches_per_message(self, paper_group):
        rng = random.Random(32)
        messages = [b"block-%d" % i for i in range(6)]
        exponents = [rng.randrange(paper_group.order) for _ in messages]
        assert paper_group.hash_msm(messages, exponents) == _per_message(
            paper_group, messages, exponents
        )

    def test_pool_matches_serial(self):
        group = _group("toy-64")
        params = setup(group, 4)
        rng = random.Random(7)
        ids = [b"id-%d" % i for i in range(12)]
        betas = [rng.randrange(-group.order, group.order) for _ in ids]
        betas[5] = 0
        serial, serial_ops = _tallied(group, lambda: group.hash_msm(ids, betas))

        def pooled():
            with WorkerPool(params, workers=2) as pool:
                return pool.hash_msm(ids, betas)

        result, pooled_ops = _tallied(group, pooled)
        assert result == serial
        assert _without_cofactor(pooled_ops) == _without_cofactor(serial_ops)
        # Each of the two chunks clears its cofactor once.
        assert pooled_ops["cofactor_clear"] == 2


class TestCofactorTally:
    def test_one_per_hash_to_g1(self):
        group = _GROUPS["toy-64"]
        _, ops = _tallied(group, lambda: [group.hash_to_g1(b"m%d" % i) for i in range(3)])
        assert ops["hash_to_g1"] == ops["cofactor_clear"] == 3

    def test_one_per_fused_hash_msm(self):
        group = _GROUPS["toy-64"]
        _, ops = _tallied(group, lambda: group.hash_msm([b"m%d" % i for i in range(9)], [3] * 9))
        assert ops["hash_to_g1"] == 9
        assert ops["cofactor_clear"] == 1

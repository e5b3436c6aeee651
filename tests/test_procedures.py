"""Tests for the step-up procedures: hand examples, equivalences, and the
self-consistency / monotonicity properties."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focusfdr.checks import (check_filter_monotonicity, check_oracle_tstar,
                             check_procedure_monotonicity, random_dag,
                             random_tree)
from focusfdr.dag import build_dag
from focusfdr.filters import FilterSpec, interval_counts
from focusfdr.procedures import (FOCUSED, PROCEDURES, InvalidReshapingError,
                                 LevelOutOfRangeError, NonpositiveWeightError,
                                 NotATreeError, QOutOfRangeError, ReshapingFn,
                                 StructurePlan, YK_DIVISOR,
                                 _focused_rows, _scan, _step_up, _top_down,
                                 bh, brute_force_tstar,
                                 by_procedure, fbh, run_procedure, run_rows,
                                 storey_bh, unity_weights,
                                 weighted_reshaped_fbh, wfbh, yekutieli_tree)
from focusfdr.weights import WeightConfig, dag_weights, storey_pi0

DS = FilterSpec("ds")
TRIVIAL = FilterSpec("trivial")


def test_bh_examples():
    assert bh([0.01, 0.02, 0.5], 0.05) == {0, 1}
    assert bh([1.0, 1.0, 1.0], 0.05) == set()
    assert bh([0.001], 0.05) == {0}


def test_bh_q_domain():
    with pytest.raises(QOutOfRangeError):
        bh([0.1], 0.0)
    with pytest.raises(QOutOfRangeError):
        bh([0.1], 1.0)


def test_storey_bh_examples():
    p = [0.9, 0.8, 0.1, 0.2]
    assert storey_bh(p, 0.2, 0.5) == set()
    assert storey_bh(p, 0.8, 0.5) == {2, 3}


def test_storey_bh_reduces_to_bh_when_pi0_is_one():
    # 4 of 10 above lambda: pi0 = (1+4)/(10*0.5) = 1
    p = np.array([0.9, 0.8, 0.7, 0.6, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01])
    assert storey_bh(p, 0.15, 0.5) == bh(p, 0.15)


def test_wfbh_chain_no_feasible_positive_threshold():
    dag = build_dag(3, [(0, 1), (1, 2)])
    res = wfbh(dag, np.array([0.5, 0.01, 0.02]), unity_weights(3), DS, 0.1)
    assert res.t_star == 0.0
    assert res.discovery_set == set()
    assert res.fdp_hat_at_tstar == 0.0


def test_wfbh_chain_rejects_all():
    dag = build_dag(3, [(0, 1), (1, 2)])
    res = wfbh(dag, np.array([0.01, 0.02, 0.03]), unity_weights(3), DS, 0.1)
    assert res.t_star == pytest.approx(0.03)
    assert res.discovery_set == {0, 1, 2}
    assert res.base_set == {0, 1, 2}
    assert res.fdp_hat_at_tstar == pytest.approx(0.03)
    assert res.candidate_count == 4


def test_wfbh_matches_bh_unity_trivial():
    rng = np.random.default_rng(0)
    for _ in range(400):
        m = int(rng.integers(1, 51))
        dag = build_dag(m, [])
        p = rng.uniform(size=m)
        q = float(rng.uniform(0.01, 0.5))
        res = wfbh(dag, p, unity_weights(m), TRIVIAL, q)
        assert res.discovery_set == bh(p, q)


def test_fbh_subset_of_bh():
    rng = np.random.default_rng(1)
    for _ in range(300):
        dag = random_dag(rng)
        p = rng.uniform(size=dag.m)
        q = float(rng.uniform(0.05, 0.4))
        spec = FilterSpec(str(rng.choice(["ds", "outer", "trivial"])))
        assert fbh(dag, p, spec, q).discovery_set <= bh(p, q)


def test_self_consistency_invariant():
    # every discovery satisfies w_i p_i <= t* <= q |U*| / m
    rng = np.random.default_rng(2)
    for _ in range(300):
        dag = random_dag(rng)
        p = rng.uniform(size=dag.m)
        w = np.exp(rng.normal(0, 0.5, size=dag.m))
        q = float(rng.uniform(0.05, 0.4))
        spec = FilterSpec(str(rng.choice(["ds", "outer", "trivial"])))
        res = wfbh(dag, p, w, spec, q)
        assert res.discovery_set <= res.base_set
        if res.discovery_set:
            wp = w * p
            for v in res.discovery_set:
                assert wp[v] <= res.t_star + 1e-15
            assert res.t_star <= q * len(res.discovery_set) / dag.m + 1e-15


def test_weighted_pvalues_above_one_are_candidates():
    dag = build_dag(2, [])
    res = wfbh(dag, np.array([0.9, 0.8]), np.array([2.0, 2.0]), TRIVIAL, 0.9)
    # both weighted values 1.8, 1.6 exceed one yet FDP(1.8) = 2*1.8/2 = 1.8;
    # infeasible here, but they must appear among the candidates
    assert res.candidate_count == 3


def test_nonpositive_weight_rejected():
    dag = build_dag(2, [])
    with pytest.raises(NonpositiveWeightError):
        wfbh(dag, np.array([0.5, 0.5]), np.array([1.0, 0.0]), TRIVIAL, 0.1)


def test_optimized_tstar_equals_brute_force():
    ok, lines = check_oracle_tstar(trials=300, seed=3)
    assert ok, lines


def test_procedure_monotonicity_trials():
    ok, lines = check_procedure_monotonicity(trials=150, seed=4)
    assert ok, lines


@pytest.mark.parametrize("suite", [check_oracle_tstar,
                                   check_filter_monotonicity,
                                   check_procedure_monotonicity],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("arg, bad", [
    ("trials", 2.5), ("trials", True), ("trials", 0), ("trials", "1"),
    ("seed", True), ("seed", 2.5), ("seed", -1), ("seed", "1")], ids=str)
def test_check_suites_take_integer_trials_and_seeds(suite, arg, bad):
    low = 1 if arg == "trials" else 0
    message = (f"^{arg} must be an integer >= {low}, "
               f"got {re.escape(repr(bad))}$")
    with pytest.raises(ValueError, match=message):
        suite(**{"trials": 1, "seed": 0, arg: bad})


def test_reshaping_identity_matches_plain():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dag = random_dag(rng)
        p = rng.uniform(size=dag.m)
        res_plain = wfbh(dag, p, unity_weights(dag.m), DS, 0.2)
        res_id = weighted_reshaped_fbh(dag, p, unity_weights(dag.m), DS, 0.2,
                                       ReshapingFn.identity())
        assert res_id.t_star == res_plain.t_star
        assert res_id.discovery_set == res_plain.discovery_set


def test_by_reshaping_values():
    beta = ReshapingFn.by(3)
    assert beta(2.0) == pytest.approx(2 / (1 + 0.5 + 1 / 3))
    assert beta(0.0) == 0.0


def test_reshaped_never_exceeds_plain_threshold():
    rng = np.random.default_rng(6)
    for _ in range(300):
        dag = random_dag(rng)
        p = rng.uniform(size=dag.m)
        w = np.exp(rng.normal(0, 0.5, size=dag.m))
        q = float(rng.uniform(0.05, 0.4))
        spec = FilterSpec(str(rng.choice(["ds", "outer", "trivial"])))
        plain = wfbh(dag, p, w, spec, q)
        reshaped = weighted_reshaped_fbh(dag, p, w, spec, q,
                                         ReshapingFn.by(dag.m))
        assert reshaped.t_star <= plain.t_star


@st.composite
def reshapings(draw):
    """Any reshaping the public constructor accepts: BY of some m, a linear
    scale in [5e-324, 1], or a custom table built upwards from beta(0) = 0,
    each step a fraction k / 100 of the room left below r (flat steps and
    beta(r) = r included)."""
    kind = draw(st.sampled_from(["by", "linear", "custom"]))
    if kind == "by":
        return ReshapingFn.by(draw(st.integers(1, 60)))
    if kind == "linear":
        return ReshapingFn("by", draw(st.floats(5e-324, 1.0)))
    table = [0.0]
    for r, k in enumerate(draw(st.lists(st.integers(0, 100), max_size=20)),
                          start=1):
        table.append(min(float(r), table[-1] + k / 100 * (r - table[-1])))
    return ReshapingFn.custom(table)


@given(seed=st.integers(0, 2**32 - 1), beta=reshapings(),
       kind=st.sampled_from(["ds", "outer", "trivial", "screen"]))
@settings(max_examples=300, deadline=None)
def test_every_valid_reshaping_stays_below_the_plain_threshold(seed, beta,
                                                               kind):
    rng = np.random.default_rng(seed)
    dag = random_dag(rng) if rng.random() < 0.5 else random_tree(rng)
    p = rng.uniform(size=dag.m)
    w = np.exp(rng.normal(0, 0.5, size=dag.m))
    q = float(rng.uniform(0.05, 0.4))
    spec = FilterSpec("screen", 0.5) if kind == "screen" else FilterSpec(kind)
    reshaped = wfbh(dag, p, w, spec, q, reshaping=beta).t_star
    assert reshaped <= wfbh(dag, p, w, spec, q).t_star
    assert reshaped == brute_force_tstar(dag, p, w, spec, q, reshaping=beta)


@pytest.mark.parametrize("beta", [ReshapingFn("by", 5e-324),
                                  ReshapingFn.custom([0.0, 5e-324, 1e-310])],
                         ids=["by-subnormal", "custom-subnormal"])
def test_oracle_takes_a_subnormal_beta(beta):
    # m t / beta used to overflow, which warns (an error under pytest here)
    dag = build_dag(3, [(0, 1), (1, 2)])
    p = np.array([1e-300, 0.5, 0.9])
    w = unity_weights(3)
    want = wfbh(dag, p, w, DS, 0.05, reshaping=beta).t_star
    assert brute_force_tstar(dag, p, w, DS, 0.05, reshaping=beta) == want


@pytest.mark.parametrize("run", [wfbh, brute_force_tstar],
                         ids=["wfbh", "brute_force_tstar"])
def test_a_bare_callable_is_no_reshaping(run):
    # beta(r) = 5 r is no valid reshaping, yet it used to raise t* to 0.06
    dag = build_dag(3, [(0, 1), (1, 2)])
    p, w = np.array([0.04, 0.05, 0.06]), unity_weights(3)
    assert wfbh(dag, p, w, DS, 0.05).t_star == 0.0
    with pytest.raises(InvalidReshapingError, match="must be a ReshapingFn"):
        run(dag, p, w, DS, 0.05, reshaping=lambda r: 5 * r)


@pytest.mark.parametrize("kind, scale, table, message", [
    ("bogus", 1.0, None, "unknown reshaping kind 'bogus'"),
    ("identity", 1.0, (0.0, 1.0), "identity reshaping takes no table"),
    ("identity", 0.5, None, r"identity reshaping: scale must be 1, got 0.5"),
    ("by", 5.0, None, r"by reshaping: scale must be in \(0, 1\], got 5.0"),
    ("by", 0.0, None, r"by reshaping: scale must be in \(0, 1\], got 0.0"),
    ("by", 0.5, (0.0, 1.0), "by reshaping takes no table"),
    ("custom", 1.0, None, "custom reshaping needs a table"),
    ("custom", 0.5, (0.0, 1.0), "custom reshaping: scale must be 1"),
    ("custom", 1.0, (), r"table must start with beta\(0\) = 0"),
    ("custom", 1.0, (0.0, 1.5), r"beta\(r\) must not exceed r"),
    ("custom", 1.0, (0.0, 1.0, 0.5), "beta must be nondecreasing"),
    ("custom", 1.0, (0.0, float("nan")), "beta must be nondecreasing"),
], ids=["kind", "identity-table", "identity-scale", "by-scale-above",
        "by-scale-zero", "by-table", "custom-no-table", "custom-scale",
        "custom-empty", "custom-above-r", "custom-decreasing", "custom-nan"])
def test_reshaping_checks_itself_when_built(kind, scale, table, message):
    # each of these used to build, and the by scale 5.0 gave beta(r) = 5 r
    with pytest.raises(InvalidReshapingError, match=message):
        ReshapingFn(kind, scale, table)


def test_by_procedure_matches_classic_step_up():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 40))
        p = rng.uniform(size=m)
        q = float(rng.uniform(0.05, 0.5))
        got = by_procedure(p, q)
        # independent classic BY: step-up at k q / (m H_m)
        harmonic = np.sum(1.0 / np.arange(1, m + 1))
        order = np.argsort(p)
        thresh = np.arange(1, m + 1) * q / (m * harmonic)
        ks = np.flatnonzero(p[order] <= thresh)
        expected = set(order[:ks[-1] + 1]) if ks.size else set()
        assert got == expected


def test_custom_reshaping_validation():
    with pytest.raises(InvalidReshapingError):
        ReshapingFn.custom([0.5, 1.0])          # beta(0) != 0
    with pytest.raises(InvalidReshapingError):
        ReshapingFn.custom([0.0, 1.0, 0.5])     # decreasing
    with pytest.raises(InvalidReshapingError):
        ReshapingFn.custom([0.0, 1.5])          # beta(r) > r
    beta = ReshapingFn.custom([0.0, 0.5, 1.5])
    assert beta(1) == 0.5 and beta(2.0) == 1.5


@pytest.mark.parametrize("table", [
    5, ["x"], [0.0, True], ["0", "0.5"], "00", np.array([0.0, 0.5]),
    {0.0: 1}, [0.0, None]],
    ids=["int", "string-item", "bool-item", "numeric-strings", "string",
         "array", "dict", "none-item"])
@pytest.mark.parametrize("build", [
    ReshapingFn.custom, lambda table: ReshapingFn("custom", table=table)],
    ids=["custom", "constructor"])
def test_custom_table_must_be_a_list_or_tuple_of_real_numbers(build, table):
    # a bare TypeError or float()'s ValueError, or a table read as numbers
    with pytest.raises(InvalidReshapingError,
                       match=r"custom reshaping: table: need a list or tuple"
                             r" of real numbers, got "):
        build(table)


def test_custom_table_is_frozen_as_floats():
    # the record used to keep the caller's list: editing it after the
    # checks gave beta(1) = 9, which passes the checks of no record
    table = [0, 0.5, np.float32(1.0), 1.5]
    beta = ReshapingFn("custom", table=table)
    table[:] = [0, 9, 9, 9]
    assert beta.table == (0.0, 0.5, 1.0, 1.5)
    assert all(type(v) is float for v in beta.table)
    assert beta(1) == 0.5
    assert hash(beta) == hash(ReshapingFn.custom((0.0, 0.5, 1.0, 1.5)))
    dag = build_dag(3, [(0, 1), (1, 2)])
    p = np.array([0.04, 0.05, 0.06])
    assert wfbh(dag, p, np.ones(3), DS, 0.05, beta).t_star == 0.0


def test_yekutieli_tree_examples():
    dag = build_dag(2, [(0, 1)])
    assert yekutieli_tree(dag, np.array([0.001, 0.9]), 0.1) == {0}
    assert yekutieli_tree(dag, np.array([1.0, 0.001]), 0.1) == set()
    wide = build_dag(3, [(0, 1), (0, 2)])
    assert yekutieli_tree(wide, np.array([1.0, 1.0, 1.0]), 0.3) == set()
    # the full-tree calibration used by the harness
    assert 0.05 / (2 * 1.44) == pytest.approx(0.017361, abs=1e-6)


def test_yekutieli_requires_tree_and_level():
    diamond = build_dag(3, [(0, 2), (1, 2)])
    with pytest.raises(NotATreeError):
        yekutieli_tree(diamond, np.array([0.1, 0.1, 0.1]), 0.1)
    chain = build_dag(2, [(0, 1)])
    with pytest.raises(LevelOutOfRangeError):
        yekutieli_tree(chain, np.array([0.1, 0.1]), 1.5)


@pytest.mark.parametrize("q, shown", [
    (True, "True"), ("0.1", "'0.1'"), (None, "None"),
    pytest.param(10**400, str(10**400), id="10**400"),
    pytest.param(-10**400, str(-10**400), id="-10**400")])
def test_top_down_q_must_be_a_number_before_it_is_divided(q, shown):
    # True / 2.88 would pass as the level 0.347, and an int past a float's
    # range would end in a bare OverflowError
    plan = StructurePlan(build_dag(2, [(0, 1)]), WeightConfig())
    with pytest.raises(LevelOutOfRangeError, match=re.escape(
            f"q / yk-divisor must be in (0, 1), got {shown}")):
        run_procedure(plan, np.array([0.1, 0.1]), "yekutieli-tree", TRIVIAL,
                      q)
    # a q above 1 is fine while q / yk-divisor is in (0, 1)
    assert run_procedure(plan, np.array([0.1, 0.1]), "yekutieli-tree",
                         TRIVIAL, 2.0).discovery_set == {0, 1}


def test_run_procedure_rejects_top_down_on_non_tree_plan():
    plan = StructurePlan(build_dag(3, [(0, 2), (1, 2)]), WeightConfig())
    with pytest.raises(NotATreeError):
        run_procedure(plan, np.array([0.1, 0.1, 0.1]), "yekutieli-tree",
                      TRIVIAL, 0.05)


def top_down_recursion(dag, p, level):
    """The top-down baseline as a recursive frontier: the textbook step-up
    rule on the root family, then on the child family of each rejected
    node."""
    ptr, kids = dag.child_indptr, dag.child_indices
    rejected = set()
    frontier = [dag.roots.tolist()]
    while frontier:
        family = frontier.pop()
        if not family:
            continue
        for local in textbook_step_up(p[family], level):
            node = family[local]
            rejected.add(node)
            frontier.append(kids[ptr[node]:ptr[node + 1]].tolist())
    return frozenset(rejected)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 30),
       r=st.integers(1, 4), root_share=st.sampled_from([0.0, 0.2, 0.6]),
       levels=st.sampled_from([2, 10, 1000]),
       level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       fortran=st.booleans())
@settings(max_examples=300, deadline=None)
def test_top_down_block_matches_recursion(seed, m, r, root_share, levels,
                                          level, fortran):
    # forests: each node beyond the first hangs on an earlier one or, with
    # probability root_share, roots a tree of its own (isolated roots
    # included); shuffled ids, so ids do not follow the tree; p-values on
    # a grid of ``levels`` steps, with ties and exact zeros and ones, in
    # either memory order
    rng = np.random.default_rng(seed)
    ids = rng.permutation(m)
    dag = build_dag(m, [(int(ids[rng.integers(0, j)]), int(ids[j]))
                        for j in range(1, m) if rng.random() >= root_share])
    block = rng.integers(0, levels + 1, size=(r, m)) / levels
    if fortran:
        block = np.asfortranarray(block)
    got = _top_down(dag, block, level)
    assert got.shape == (r, m) and got.dtype == bool
    for row, hits in zip(block, got):
        assert frozenset(np.flatnonzero(hits).tolist()) == top_down_recursion(
            dag, row, level)


def test_procedure_results_compare_and_hash_by_identity():
    dag = build_dag(3, [(0, 1), (1, 2)])
    p = np.array([0.01, 0.02, 0.03])
    a, b = (wfbh(dag, p, unity_weights(3), DS, 0.1) for _ in range(2))
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2


def test_tie_handling_is_deterministic():
    dag = build_dag(4, [])
    p = np.array([0.02, 0.02, 0.02, 0.9])
    res1 = wfbh(dag, p, unity_weights(4), TRIVIAL, 0.05)
    res2 = wfbh(dag, p, unity_weights(4), TRIVIAL, 0.05)
    assert res1.discovery_set == res2.discovery_set == {0, 1, 2}
    assert res1.candidate_count == 3  # {0, 0.02, 0.9} after dedup


def test_brute_force_agrees_on_hand_example():
    dag = build_dag(3, [(0, 1), (1, 2)])
    p = np.array([0.5, 0.01, 0.02])
    assert brute_force_tstar(dag, p, unity_weights(3), DS, 0.1) == 0.0


def test_full_pipeline_at_large_tree_scale():
    # a few thousand nodes with deep nesting, the size real annotation
    # hierarchies reach; smoothing plus weighting plus the scan should stay
    # interactive
    import time

    from focusfdr.combine import Combiner, smooth_all_descendants
    from focusfdr.dag import compute_depths, group_index
    from focusfdr.weights import WeightConfig, dag_weights

    rng = np.random.default_rng(0)
    m = 3300
    dag = build_dag(m, [(int(rng.integers(max(0, j - 3), j)), j)
                        for j in range(1, m)])
    depths = compute_depths(dag)
    groups = group_index(dag, depths)
    p = rng.uniform(size=m) ** 2
    t0 = time.time()
    sm = smooth_all_descendants(dag, p, Combiner("simes"))
    wv = dag_weights(dag, depths, groups, sm, WeightConfig(lam=0.05))
    res = wfbh(dag, sm, wv, DS, 0.05)
    assert time.time() - t0 < 30.0
    assert res.discovery_set
    assert res.discovery_set <= res.base_set


def textbook_step_up(p, q, pi0=1.0):
    """The step-up rule as a stable sort and a prefix: the k smallest
    p-values, ties in node order, k maximal with p_(k) m pi0 <= k q."""
    m = p.size
    order = np.argsort(p, kind="stable")
    ks = np.flatnonzero(p[order] * m * pi0 <= np.arange(1, m + 1) * q)
    return frozenset(order[:ks[-1] + 1].tolist()) if ks.size else frozenset()


@pytest.mark.parametrize("call", [
    lambda p: bh(p, 0.1), lambda p: storey_bh(p, 0.1, 0.5),
    lambda p: by_procedure(p, 0.1), lambda p: storey_pi0(p, 0.5)],
    ids=["bh", "storey_bh", "by_procedure", "storey_pi0"])
@pytest.mark.parametrize("shape", [(2, 3), (1, 4), ()])
def test_vector_procedures_reject_other_shapes(call, shape):
    # a block is not flattened into one vector of p-values
    p = np.full(shape, 0.01)
    with pytest.raises(ValueError, match=re.escape(
            f"need a 1-D sequence of p-values, got an array of shape {shape}")):
        call(p)


def interval_scan(wp, enter, leave, q, beta):
    """t* from the distinct candidates, each counted by comparing it with
    every interval, one row at a time."""
    cands = np.unique(np.concatenate(([0.0], wp)))
    counts = np.count_nonzero((enter <= cands[:, None])
                              & (cands[:, None] < leave), axis=1)
    reshaped = beta(counts.astype(float))
    feasible = (wp.size * cands <= q * reshaped) & (reshaped > 0)
    feasible |= cands == 0.0
    return float(cands[feasible][-1])


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40),
       levels=st.sampled_from([3, 10, 1000]), q=st.sampled_from([0.1, 0.4]))
@settings(max_examples=200, deadline=None)
def test_step_up_matches_textbook_with_ties(seed, m, levels, q):
    # few distinct values make ties at the cut, which go in node order
    rng = np.random.default_rng(seed)
    p = rng.integers(0, levels, size=m) / levels
    assert bh(p, q) == textbook_step_up(p, q)
    assert storey_bh(p, q, 0.5) == textbook_step_up(p, q, storey_pi0(p, 0.5))
    # an (R, m) block with signed zeros and one pi0 per row
    block = rng.integers(0, levels, size=(6, m)) / levels
    block[rng.uniform(size=block.shape) < 0.2] = -0.0
    pi0 = rng.uniform(0.2, 1.5, size=(6, 1))
    for row, w, hits in zip(block, pi0[:, 0], _step_up(block, q, pi0)):
        assert frozenset(np.flatnonzero(hits).tolist()) == textbook_step_up(
            row, q, w)


@given(seed=st.integers(0, 2**32 - 1), r=st.sampled_from([1, 4]),
       m=st.integers(1, 40), levels=st.sampled_from([3, 10, 1000]),
       q=st.sampled_from([0.01, 0.1, 0.4]))
@settings(max_examples=200, deadline=None)
def test_by_step_up_matches_trivial_filter_scan(seed, r, m, levels, q):
    # BY on the step-up kernel against its former route: the BY-reshaped
    # focused scan with unity weights and the trivial filter
    rng = np.random.default_rng(seed)
    block = rng.integers(0, levels, size=(r, m)) / levels
    block[rng.uniform(size=block.shape) < 0.2] = -0.0
    beta = ReshapingFn.by(m)
    want = _focused_rows(None, block, 1.0, TRIVIAL, q, beta)[2]
    assert np.array_equal(_step_up(block, q, beta=beta), want)
    for row, hits in zip(block, want):
        assert by_procedure(row, q) == frozenset(np.flatnonzero(hits).tolist())


@given(seed=st.integers(0, 2**32 - 1), r=st.sampled_from([1, 4]),
       m=st.integers(0, 30), outer=st.booleans(),
       beta=st.sampled_from([ReshapingFn.identity(), ReshapingFn.by(30),
                             ReshapingFn.custom(list(range(31)))]))
@settings(max_examples=200, deadline=None)
def test_block_scan_matches_interval_curve(seed, r, m, outer, beta):
    # ties, signed zeros and never-kept (+inf) nodes included
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, 0.01, 0.02, 0.05, 0.3, 1.2])
    wp = rng.choice(values, size=(r, m))
    enter = np.maximum(wp, rng.choice(values, size=(r, m)))
    enter[rng.uniform(size=(r, m)) < 0.2] = np.inf
    leave = np.full((r, m), np.inf)
    if outer:
        leave = np.where(rng.uniform(size=(r, m)) < 0.5,
                         enter + rng.choice(values[2:], size=(r, m)), np.inf)
    got = _scan(wp, enter, leave, 0.3, beta)
    assert got.shape == (r, 1)
    for i in range(r):
        assert got[i, 0] == interval_scan(wp[i], enter[i], leave[i], 0.3, beta)


COUNT_ENDS = [0.0, -0.0, 0.01, 0.02, 0.5, 1.2, np.inf]


@given(data=st.data(), r=st.sampled_from([1, 4, 10]),
       n_ends=st.integers(0, 40), n_cands=st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_counts_at_matches_pairwise_comparison(data, r, n_ends, n_cands):
    # an oracle that shares no search with production: compare every end
    # with every candidate; ties, signed zeros and +inf ends included
    ends = np.array(data.draw(st.lists(
        st.sampled_from(COUNT_ENDS), min_size=r * n_ends,
        max_size=r * n_ends))).reshape(r, n_ends)
    cands = np.sort(np.array(data.draw(st.lists(
        st.sampled_from(COUNT_ENDS[:-1]), min_size=r * n_cands,
        max_size=r * n_cands))).reshape(r, n_cands), axis=1)
    got = interval_counts(ends, np.full(ends.shape, np.inf), cands)
    assert got.shape == (r, n_cands)
    assert np.issubdtype(got.dtype, np.integer)
    assert np.array_equal(got, np.count_nonzero(
        ends[:, None, :] <= cands[:, :, None], axis=2))


@given(seed=st.integers(0, 2**32 - 1), tree=st.booleans(),
       r=st.sampled_from([1, 5]), discrete=st.booleans(),
       dw=st.sampled_from(["auto", "none", (1,)]))
@settings(max_examples=100, deadline=None)
def test_run_rows_matches_one_row_runs(seed, tree, r, discrete, dw):
    # every procedure on a block gives each row what run_procedure gives it
    rng = np.random.default_rng(seed)
    dag = random_tree(rng, 25) if tree else random_dag(rng, 25)
    block = rng.uniform(size=(r, dag.m))
    if discrete:
        block = np.round(block * 8) / 8
    config = WeightConfig(lam=0.5, dw=dw)
    plan = StructurePlan(dag, config)
    names = [n for n in PROCEDURES if tree or n != "yekutieli-tree"]
    methods = [(name, FilterSpec.from_name(f), reshaped)
               for name in names
               for f in ("trivial", "ds", "outer", "screen:0.4")
               for reshaped in ((False, True) if name in FOCUSED
                                else (False,))]
    runs = run_rows(plan, block, methods, 0.3)
    for (name, fspec, reshaped), (found, w, _) in zip(methods, runs):
        for i in range(r):
            result = run_procedure(plan, block[i], name, fspec, 0.3,
                                   reshaped)
            disc, weights = result.discovery_set, result.weights_used
            assert frozenset(np.flatnonzero(found[i]).tolist()) == disc
            assert np.array_equal(w[i], weights)


def _reference_run(plan, p, name, fspec, q, reshaped):
    """What the public one-procedure call of ``name`` gives on p: a
    ProcedureResult for the focused methods, else the discovery set."""
    dag = plan.dag
    if name == "bh":
        return bh(p, q)
    if name == "storey-bh":
        return storey_bh(p, q, plan.weight_config.lam)
    if name == "by":
        return by_procedure(p, q)
    if name == "yekutieli-tree":
        return yekutieli_tree(dag, p, q / YK_DIVISOR)
    if name == "fbh" and not reshaped:
        return fbh(dag, p, fspec, q)
    weights = (unity_weights(dag.m) if name == "fbh" else dag_weights(
        dag, plan.depths, plan.groups, p, plan.weight_config))
    if reshaped or name == "wrfbh":
        return weighted_reshaped_fbh(dag, p, weights, fspec, q,
                                     ReshapingFn.by(dag.m))
    return wfbh(dag, p, weights, fspec, q)


@given(seed=st.integers(0, 2**32 - 1), tree=st.booleans(),
       discrete=st.booleans(), dw=st.sampled_from(["auto", "none", (1,)]))
@settings(max_examples=40, deadline=None)
def test_run_procedure_record_matches_public_procedures(seed, tree, discrete,
                                                         dw):
    # run_procedure's one record agrees field by field with wfbh, fbh, bh,
    # storey_bh, by_procedure and yekutieli_tree run on their own
    rng = np.random.default_rng(seed)
    dag = random_tree(rng, 25) if tree else random_dag(rng, 25)
    p = rng.uniform(size=dag.m)
    if discrete:
        p = np.round(p * 8) / 8
    plan = StructurePlan(dag, WeightConfig(lam=0.5, dw=dw))
    q = 0.3
    for name in PROCEDURES:
        if name == "yekutieli-tree" and not tree:
            continue
        for f in ("trivial", "ds", "outer", "screen:0.4"):
            fspec = FilterSpec.from_name(f)
            for reshaped in (False, True) if name in FOCUSED else (False,):
                got = run_procedure(plan, p, name, fspec, q, reshaped)
                want = _reference_run(plan, p, name, fspec, q, reshaped)
                assert got.found.shape == (dag.m,)
                if name not in FOCUSED:
                    assert got.discovery_set == want
                    assert got.base_set == got.discovery_set
                    assert np.array_equal(got.weights_used, np.ones(dag.m))
                    assert got.t_star is None
                    assert got.fdp_hat_at_tstar is None
                    assert got.weighted_p is None
                    assert got.candidate_count is None
                    continue
                assert np.array_equal(got.found, want.found)
                assert np.array_equal(got.weights_used, want.weights_used)
                assert np.array_equal(got.weighted_p, want.weighted_p)
                for field in ("t_star", "fdp_hat_at_tstar", "base_set",
                              "discovery_set", "candidate_count"):
                    assert getattr(got, field) == getattr(want, field), field

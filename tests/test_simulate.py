"""Tests for the graph generators, data generation, and the Monte Carlo
replication harness."""

import os
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import focusfdr.dag as dag_module
import focusfdr.procedures as procedures_module
import focusfdr.simulate as simulate_module
from focusfdr.checks import check_superuniformity, random_dag, random_tree
from focusfdr.combine import (Combiner, combine_segments, inner_segments,
                              smooth_all_descendants, smooth_rows)
from focusfdr.dag import (NodeIdOutOfRangeError, build_dag, check_heredity,
                          compute_depths, group_index, is_tree)
from focusfdr.filters import FilterSpec
from focusfdr.procedures import StructurePlan, run_procedure
from focusfdr.simulate import (GRAPH_FAMILIES, SIGNAL_SETUPS, MethodSpec,
                               RhoOutOfRangeError, SimConfig,
                               UnknownFamilyError, assign_truth,
                               condition1_check, generate_graph,
                               run_simulation, sample_pvalues, signal_means,
                               superuniformity_check)
from focusfdr.special import normal_cdf
from focusfdr.weights import WeightConfig, WeightWorkspace


def test_wide_tree_counts():
    dag = generate_graph("wide-tree")
    depths = compute_depths(dag)
    assert dag.m == 550
    assert len(depths.levels[1]) == 50
    assert len(depths.levels[2]) == 500
    assert is_tree(dag)


def test_deep_tree_counts():
    dag = generate_graph("deep-tree")
    depths = compute_depths(dag)
    assert dag.m == 555
    assert [len(depths.levels[d]) for d in (1, 2, 3)] == [5, 50, 500]
    assert is_tree(dag)


def test_family_group_counts():
    dag = generate_graph("deep-tree")
    depths = compute_depths(dag)
    assert group_index(dag, depths).n_d.tolist() == [0, 1, 5, 50]
    dag = generate_graph("bipartite2", 4)
    depths = compute_depths(dag)
    assert group_index(dag, depths).n_d.tolist() == [0, 1, 61]
    dag = generate_graph("wide-tree")
    depths = compute_depths(dag)
    assert group_index(dag, depths).n_d.tolist() == [0, 1, 50]


def test_bipartite1_counts():
    dag = generate_graph("bipartite1", 11)
    depths = compute_depths(dag)
    assert dag.m == 550
    assert len(dag.roots) == 200 and len(dag.leaves) == 350
    assert depths.max_depth == 2
    assert not is_tree(dag)
    assert all(len(dag.children[r]) == 10 for r in range(200))


def test_bipartite2_parent_multiset():
    dag = generate_graph("bipartite2", 11)
    assert dag.m == 551
    assert len(dag.roots) == 61 and len(dag.leaves) == 490
    counts = Counter(len(dag.parents[v]) for v in range(61, 551))
    assert counts == {1: 370, 2: 120}
    assert all(len(dag.children[r]) == 10 for r in range(61))


@pytest.mark.parametrize("family", ["wide-tree", "deep-tree"])
def test_fixed_families_share_one_read_only_dag(family):
    dag = generate_graph(family)
    assert generate_graph(family, 9) is dag
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert generate_graph(family, rng) is dag
    assert rng.bit_generator.state == state      # no draw moves a stream
    arrays = [a for a in vars(dag).values() if isinstance(a, np.ndarray)]
    assert len(arrays) >= 8
    for a in arrays + list(dag.descendant_closure):
        assert not a.flags.writeable


def _bipartite2_per_hand(rng, max_tries=10000):
    """The bipartite-2 dealer with one ``np.unique`` check per hand."""
    doubled = rng.choice(490, size=120, replace=False)
    pool = np.concatenate([np.arange(490), doubled])
    for _ in range(max_tries):
        hands = rng.permutation(pool).reshape(61, 10)
        if all(np.unique(h).size == 10 for h in hands):
            return build_dag(551, [(r, 61 + int(c)) for r in range(61)
                                   for c in hands[r]])
    raise RuntimeError("no hand dealt")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bipartite2_matches_per_hand_generator(seed):
    # same graph, and the same draws consumed by the rejection loop
    old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _bipartite2_per_hand(old_rng)
    assert generate_graph("bipartite2", new_rng).edges == want.edges
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    assert generate_graph("bipartite2", seed).edges == want.edges


def _choice_picks(rng):
    """One bipartite-1 try as 200 calls of numpy's own ``choice``."""
    return np.stack([rng.choice(350, size=10, replace=False)
                     for _ in range(200)])


def _bipartite1_by_choice(rng, max_tries=1000):
    """The bipartite-1 generator with every try drawn by the choice loop."""
    for _ in range(max_tries):
        picks = _choice_picks(rng)
        if np.unique(picks).size == 350:
            return build_dag(550, [(r, 200 + int(c)) for r in range(200)
                                   for c in picks[r]])
    raise RuntimeError("no leaf cover drawn")


def _assert_same_stream(rng, oracle):
    """Equal bit-generator states (``uinteger`` only where ``has_uint32``
    says it is read), and equal next draws: an odd number of 32-bit words,
    which reads the buffered half, then doubles."""
    state, want = rng.bit_generator.state, oracle.bit_generator.state
    if not want.get("has_uint32", True):
        state, want = ({k: v for k, v in s.items() if k != "uinteger"}
                       for s in (state, want))
    np.testing.assert_equal(state, want)
    for draw in (lambda g: g.integers(2**32, size=3, dtype=np.uint32),
                 lambda g: g.random(2)):
        np.testing.assert_array_equal(draw(rng), draw(oracle))


BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                  np.random.SFC64, np.random.MT19937)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_words=st.integers(0, 5),
       n_doubles=st.integers(0, 3), bit_generator=st.sampled_from(
           BIT_GENERATORS))
def test_raw_picks_match_numpy_choice(seed, n_words, n_doubles,
                                      bit_generator):
    # the oracle is numpy's own choice, so a numpy whose choice draws
    # differently fails here; a prefix with an odd number of 32-bit words
    # leaves a buffered half, which the raw block must decline
    rng, oracle = (np.random.Generator(bit_generator(seed)) for _ in "ab")
    for g in (rng, oracle):
        g.random(n_doubles)
        g.integers(2**32, size=n_words, dtype=np.uint32)
    before = rng.bit_generator.state
    want = _choice_picks(oracle)
    picks = simulate_module._raw_picks(rng.bit_generator)
    if picks is None:
        # declined: the stream is untouched, and the try runs the calls
        np.testing.assert_equal(rng.bit_generator.state, before)
        picks = _choice_picks(rng)
    else:
        assert before["has_uint32"] == 0
    np.testing.assert_array_equal(picks, want)
    _assert_same_stream(rng, oracle)


def test_raw_picks_take_fresh_pcg64_streams():
    # none of these streams' first tries holds a word Lemire redraws
    for seed in range(10):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        picks = simulate_module._raw_picks(rng.bit_generator)
        assert picks is not None
        np.testing.assert_array_equal(picks, _choice_picks(oracle))
        _assert_same_stream(rng, oracle)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bipartite1_matches_choice_loop(seed):
    # same graph, and the same stream after the coverage loop
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _bipartite1_by_choice(oracle)
    assert generate_graph("bipartite1", rng).edges == want.edges
    _assert_same_stream(rng, oracle)
    assert generate_graph("bipartite1", seed).edges == want.edges


@pytest.mark.parametrize("seed", [5020, 24939, 45861])
def test_bipartite1_falls_back_where_lemire_redraws(seed):
    # each of these streams' first try holds a word that numpy's bounded
    # draw rejects, so the raw block declines it and the try runs the calls
    bit_generator = np.random.default_rng(seed).bit_generator
    before = bit_generator.state
    assert simulate_module._raw_picks(bit_generator) is None
    assert bit_generator.state == before
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _bipartite1_by_choice(oracle)
    assert generate_graph("bipartite1", rng).edges == want.edges
    _assert_same_stream(rng, oracle)
    assert generate_graph("bipartite1", seed).edges == want.edges


def test_generate_graph_deterministic_in_seed():
    a = generate_graph("bipartite2", 123)
    b = generate_graph("bipartite2", 123)
    assert a.edges == b.edges
    assert generate_graph("bipartite1", 5).edges != generate_graph("bipartite1", 6).edges


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        generate_graph("ladder")


def test_assign_truth_chain_propagation():
    dag = build_dag(3, [(0, 1), (1, 2)])
    truth = assign_truth(dag, 0.9, 0)   # the single leaf becomes non-null
    assert truth == {0, 1, 2}


def test_assign_truth_counts_and_heredity():
    dag = generate_graph("wide-tree")
    for seed, p in [(0, 0.1), (1, 0.3), (2, 0.5)]:
        truth = assign_truth(dag, p, seed)
        n_leaves = sum(1 for v in truth if not dag.children[v])
        assert n_leaves == round(p * 500)
        assert check_heredity(dag, truth)


def test_assign_truth_near_one_marks_every_root():
    dag = generate_graph("wide-tree")
    truth = assign_truth(dag, 0.999, 3)
    assert len(truth & set(dag.roots)) == 50


def test_signal_means_setups():
    dag = generate_graph("deep-tree")
    depths = compute_depths(dag)
    truth = frozenset(range(dag.m))
    mu_g = signal_means(depths, truth, "global")
    mu_d = signal_means(depths, truth, "decremental")
    mu_i = signal_means(depths, truth, "incremental")
    assert np.all(mu_g == 2.0)
    assert mu_d[0] == 2.0 and mu_d[554] == pytest.approx(2 + 1.5 * 2)
    assert mu_i[0] == pytest.approx(2 + 1.5 * 2) and mu_i[554] == 2.0


def test_null_pvalues_uniform():
    dag = build_dag(1, [])
    depths = compute_depths(dag)
    rng = np.random.default_rng(0)
    draws = np.array([sample_pvalues(dag, depths, frozenset(), "global",
                                     0.0, rng)[0] for _ in range(20_000)])
    assert stats.kstest(draws, "uniform").pvalue > 0.01


def test_signal_detection_rate_matches_closed_form():
    # P(p <= 0.05 | mu = 2) = Phi(2 - z_0.95)
    dag = build_dag(1, [])
    depths = compute_depths(dag)
    truth = frozenset({0})
    rng = np.random.default_rng(1)
    draws = np.array([sample_pvalues(dag, depths, truth, "global", 0.0, rng)[0]
                      for _ in range(20_000)])
    expected = 0.6387600313123353
    assert (draws <= 0.05).mean() == pytest.approx(expected, abs=0.012)


def test_equicorrelation_of_null_statistics():
    # X = (1-rho) Z + rho Z0 gives corr = rho^2 / ((1-rho)^2 + rho^2)
    dag = build_dag(2, [])
    depths = compute_depths(dag)
    rng = np.random.default_rng(2)
    n = 40_000
    xs = np.empty((n, 2))
    for r in range(n):
        p = sample_pvalues(dag, depths, frozenset(), "global", 0.2, rng)
        xs[r] = p
    z = stats.norm.ppf(1 - xs)
    got = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
    assert got == pytest.approx(0.04 / 0.68, abs=0.012)


def test_rho_zero_equals_independent_model():
    dag = generate_graph("wide-tree")
    depths = compute_depths(dag)
    truth = assign_truth(dag, 0.3, 5)
    pv = sample_pvalues(dag, depths, truth, "decremental", 0.0, 7)
    rng = np.random.default_rng(7)
    rng.standard_normal()                     # the consumed shared draw
    z = rng.standard_normal(dag.m)
    mu = signal_means(depths, truth, "decremental")
    assert np.array_equal(pv, normal_cdf(-(mu + z)))


def test_rho_domain():
    dag = build_dag(1, [])
    depths = compute_depths(dag)
    with pytest.raises(RhoOutOfRangeError):
        sample_pvalues(dag, depths, frozenset(), "global", 1.0, 0)


def _small_config(**kw):
    base = dict(family="wide-tree", setup="global", p_nonnull=(0.3,),
                n_reps=8, seed=42,
                methods=(MethodSpec("bh"), MethodSpec("fbh", "trivial"),
                         MethodSpec("wfbh", "ds")))
    base.update(kw)
    return SimConfig(**base)


def test_bh_equals_unity_trivial_focused_history():
    summary = run_simulation(_small_config())
    h_bh = summary.histories[("bh+trivial", 0.3)]
    h_fbh = summary.histories[("fbh+trivial", 0.3)]
    assert np.array_equal(h_bh, h_fbh)


def test_run_simulation_deterministic():
    s1 = run_simulation(_small_config())
    s2 = run_simulation(_small_config())
    assert s1.cells == s2.cells
    for key in s1.histories:
        assert np.array_equal(s1.histories[key], s2.histories[key])


def test_run_simulation_worker_count_invariance():
    # each worker process holds its own copy of the shared fixed trees
    for family in GRAPH_FAMILIES:
        for smoothing in (None, "simes"):
            config = _small_config(family=family, smoothing=smoothing,
                                   setup="decremental", n_reps=6)
            serial = run_simulation(config)
            parallel = run_simulation(config, n_workers=2)
            assert serial.cells == parallel.cells
            for key in serial.histories:
                assert np.array_equal(serial.histories[key],
                                      parallel.histories[key])


@pytest.mark.parametrize("n_reps", [0, -1])
def test_run_simulation_rejects_empty_sweep(n_reps):
    with pytest.raises(ValueError, match="^n_reps must be an integer >= 1, "
                                         f"got {n_reps}$"):
        run_simulation(_small_config(n_reps=n_reps))


@pytest.mark.parametrize("n_reps", [2.5, True, "8", 8.0])
def test_run_simulation_rejects_a_non_integer_replication_count(n_reps):
    with mock.patch.object(simulate_module, "_run_block") as run_block:
        with pytest.raises(ValueError, match="n_reps must be an integer"):
            run_simulation(_small_config(n_reps=n_reps))
    run_block.assert_not_called()


@pytest.mark.parametrize("field, value, kind", [
    ("methods", ("wfbh",), " of MethodSpec"),
    ("methods", MethodSpec("bh"), " of MethodSpec"),
    ("methods", [], " of MethodSpec"),
    ("p_nonnull", 0.1, ""), ("p_nonnull", "0.1", ""), ("p_nonnull", None, ""),
    ("p_nonnull", np.array([0.1]), "")],
    ids=["method-names", "one-method", "no-methods", "p-bare", "p-str",
         "p-None", "p-array"])
def test_run_simulation_sweep_lists_are_lists_or_tuples(field, value, kind):
    # unchecked, a tuple of method names ends in a bare AttributeError
    with mock.patch.object(simulate_module, "_run_block") as run_block:
        with pytest.raises(ValueError) as err:
            run_simulation(_small_config(**{field: value}))
    assert str(err.value) == (f"{field}: need a non-empty list or tuple"
                              f"{kind}, got {value!r}")
    run_block.assert_not_called()


@pytest.mark.parametrize("p_nonnull, methods, message", [
    ((0.1, 0.1), ("bh",), "p_nonnull: 0.1 is repeated"),
    ((0.1, 0.3, 0.1), ("bh",), "p_nonnull: 0.1 is repeated"),
    ((0.1,), ("bh", "bh"), "methods: 'bh\\+trivial' is repeated"),
    ((0.1,), ("wfbh:ds", "bh", "wfbh:ds"), "methods: 'wfbh\\+ds' is repeated"),
], ids=["p-twice", "p-apart", "method-twice", "method-apart"])
def test_run_simulation_rejects_repeated_cells(p_nonnull, methods, message):
    # the histories are keyed by (method label, p_nonnull): a repeat kept
    # its cell row but lost its history to the other
    specs = tuple(MethodSpec(*name.split(":")) for name in methods)
    config = SimConfig(family="wide-tree", p_nonnull=p_nonnull, n_reps=3,
                       methods=specs)
    with mock.patch.object(simulate_module, "_run_block") as run_block:
        with pytest.raises(ValueError, match=message):
            run_simulation(config)
    run_block.assert_not_called()


def test_run_simulation_keeps_a_history_per_cell():
    config = SimConfig(family="wide-tree", p_nonnull=(0.1, 0.3), n_reps=3,
                       methods=(MethodSpec("bh"), MethodSpec("bh", "ds")))
    summary = run_simulation(config)
    assert len(summary.cells) == len(summary.histories) == 4


def test_replication_composition_with_smoothing():
    # pins the per-replication pipeline: draw, smooth, weight the smoothed
    # vector, run the filtered scan, score against the truth
    from focusfdr.procedures import wfbh
    from focusfdr.weights import dag_weights

    cfg = SimConfig(family="wide-tree", setup="decremental", p_nonnull=(0.3,),
                    n_reps=1, seed=3, smoothing="fisher",
                    methods=(MethodSpec("wfbh", "ds"),))
    fdp, power = run_simulation(cfg).histories[("wfbh+ds", 0.3)][0]

    rng = np.random.default_rng([3, 0, 0])
    dag = generate_graph("wide-tree", rng)
    depths = compute_depths(dag)
    groups = group_index(dag, depths)
    truth = assign_truth(dag, 0.3, rng)
    pv = sample_pvalues(dag, depths, truth, "decremental", 0.0, rng)
    sm = smooth_all_descendants(dag, pv, Combiner("fisher"))
    wv = dag_weights(dag, depths, groups, sm, WeightConfig(lam=0.5, c=1))
    disc = wfbh(dag, sm, wv, FilterSpec("ds"), 0.05).discovery_set
    false = len(disc - truth)
    assert fdp == false / max(len(disc), 1)
    assert power == (len(disc) - false) / len(truth)


def replicate_oracle(config, p_idx, rep):
    """One replication on its own: one stream, one graph and one row at a
    time through the public one-row calls, as the harness ran before
    replications were evaluated in blocks; returns one (FDP, power) pair
    per method."""
    weight_config = WeightConfig(lam=config.resolved_lambda(), c=config.c,
                                 dw=config.dw)
    rng = np.random.default_rng([config.seed, p_idx, rep])
    dag = generate_graph(config.family, rng)
    plan = StructurePlan(dag, weight_config)
    depths = plan.depths
    truth = assign_truth(dag, config.p_nonnull[p_idx], rng)
    pv = sample_pvalues(dag, depths, truth, config.setup, config.rho, rng)
    if config.smoothing is not None:
        pv = smooth_all_descendants(dag, pv,
                                    Combiner.from_name(config.smoothing))
    out = []
    for spec in config.methods:
        disc = run_procedure(plan, pv, spec.procedure,
                             FilterSpec.from_name(spec.filter), config.q,
                             yk_divisor=config.yk_divisor).discovery_set
        n_disc = len(disc)
        false_disc = len(disc - truth)
        out.append((false_disc / max(n_disc, 1),
                    (n_disc - false_disc) / max(len(truth), 1)))
    return out


@given(family=st.sampled_from(sorted(GRAPH_FAMILIES)),
       seed=st.integers(0, 2**16), setup=st.sampled_from(SIGNAL_SETUPS),
       rho=st.sampled_from([0.0, 0.4]),
       filter_name=st.sampled_from(["trivial", "ds", "outer", "screen:0.3"]),
       smoothing=st.sampled_from([None, "fisher", "stouffer", "simes",
                                  "tippett", "bonferroni"]),
       rows=st.sampled_from([1, 7, 9]), workers=st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_blocks_match_replications_run_alone(family, seed, setup, rho,
                                             filter_name, smoothing, rows,
                                             workers):
    # 9 replications per cell: blocks of 1, of 7 (and one of 2), of all 9
    procedures = ["bh", "storey-bh", "by", "fbh", "wfbh", "wrfbh"]
    if family.endswith("tree"):
        procedures.append("yekutieli-tree")
    config = SimConfig(
        family=family, setup=setup, p_nonnull=(0.1, 0.5), rho=rho,
        n_reps=9, seed=seed, smoothing=smoothing,
        methods=tuple(MethodSpec(p, filter_name) for p in procedures))
    entries = rows * generate_graph(family, 0).m
    with mock.patch.object(simulate_module, "_BLOCK_ENTRIES", entries):
        summary = run_simulation(config, n_workers=workers)
    for p_idx, p_nonnull in enumerate(config.p_nonnull):
        want = np.array([replicate_oracle(config, p_idx, rep)
                         for rep in range(config.n_reps)])
        for mi, spec in enumerate(config.methods):
            assert np.array_equal(summary.histories[(spec.label, p_nonnull)],
                                  want[:, mi])


@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
def test_structure_plan_built_once_per_graph(monkeypatch, family):
    # depths, groups and the weight workspace read no p-value: the fixed
    # trees plan once per sweep, the random families once per graph drawn,
    # and never once per method
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (dag_module, procedures_module, simulate_module):
        if hasattr(module, "group_index"):
            monkeypatch.setattr(module, "group_index",
                                counted("group_index", module.group_index))
    monkeypatch.setattr(WeightWorkspace, "__init__",
                        counted("workspace", WeightWorkspace.__init__))
    monkeypatch.delenv("FOCUSFDR_THREADS", raising=False)
    config = SimConfig(family=family, p_nonnull=(0.1, 0.5), n_reps=3,
                       methods=tuple(MethodSpec(*m) for m in (
                           ("wfbh", "ds"), ("fbh", "ds"), ("wfbh", "outer"),
                           ("wrfbh", "ds"), ("bh", "trivial"),
                           ("storey-bh", "trivial"))))
    run_simulation(config)
    plans = 1 if family.endswith("tree") else 6
    assert calls == {"group_index": plans, "workspace": plans}


def test_smoothing_config_changes_results():
    plain = run_simulation(_small_config(setup="decremental"))
    smoothed = run_simulation(_small_config(setup="decremental",
                                            smoothing="fisher"))
    h1 = plain.histories[("wfbh+ds", 0.3)]
    h2 = smoothed.histories[("wfbh+ds", 0.3)]
    assert not np.array_equal(h1, h2)


@pytest.mark.parametrize("family", GRAPH_FAMILIES)
def test_dw_depths_range_over_the_family_max_depth(family):
    # every graph of a family has one max depth, the top of the dw range
    tops = {compute_depths(generate_graph(family, seed)).max_depth
            for seed in range(4)}
    assert len(tops) == 1
    top = tops.pop()
    config = _small_config(family=family, p_nonnull=(0.3,), n_reps=1,
                           dw=frozenset({top}))
    assert len(run_simulation(config).cells) == len(config.methods)
    with pytest.raises(ValueError, match=rf"dw depth {top + 1} is outside "
                                         rf"\[1, {top}\]: graph family"):
        run_simulation(_small_config(family=family, dw=frozenset({top + 1})))


def test_lambda_policy_q():
    cfg = _small_config(lambda_policy="q", q=0.05)
    assert cfg.resolved_lambda() == 0.05
    assert _small_config(lambda_policy="fixed:0.4").resolved_lambda() == 0.4


def test_condition1_unity_weights_exact():
    dag = generate_graph("wide-tree")
    res = condition1_check(dag, WeightConfig(dw="none"), frozenset(),
                           n_mc=50, seed=0)
    assert res.estimate == pytest.approx(550.0)
    assert res.se == pytest.approx(0.0)


@pytest.mark.parametrize("family", ["wide-tree", "deep-tree", "bipartite1"])
@pytest.mark.parametrize("p_nonnull", [None, 0.3])
@pytest.mark.parametrize("n_mc", [1, 2, 100])
def test_condition1_blocks_match_per_replication_loop(family, p_nonnull,
                                                      n_mc):
    # a (k, m) draw is k consecutive draws of m, and each block row is
    # weighted and summed as the row alone
    dag = generate_graph(family, 3)
    truth = frozenset() if p_nonnull is None else assign_truth(dag, p_nonnull,
                                                               1)
    config = WeightConfig(lam=0.5, c=1, dw="auto")
    with mock.patch.object(simulate_module, "_BLOCK_ENTRIES", 7 * dag.m):
        res = condition1_check(dag, config, truth, n_mc, seed=4,
                               setup="decremental")
    rng = np.random.default_rng(4)
    plan = StructurePlan(dag, config)
    ws = plan.workspace
    mu = signal_means(plan.depths, truth, "decremental")
    nulls = np.array(sorted(set(range(dag.m)) - truth), dtype=np.intp)
    totals = np.empty(n_mc)
    for r in range(n_mc):
        p = normal_cdf(-(mu + rng.standard_normal(dag.m)))
        totals[r] = np.sum(1.0 / ws.leave_self_zero_weights(p, 0.5)[nulls])
    assert res.estimate == totals.mean()
    se = totals.std(ddof=1) / np.sqrt(n_mc) if n_mc > 1 else 0.0
    assert res.se == se


BAD_TRUTH_IDS = [-1, 4, 3.7, True, np.True_, "3", None]


@pytest.mark.parametrize("bad", BAD_TRUTH_IDS, ids=repr)
def test_truth_sets_take_only_node_ids(bad):
    # on the 4-node DAG 0 -> 1, 0 -> 2, 2 -> 3 an id that is not an integer
    # in [0, 4) is named, before any draw, not read as some other node
    dag = build_dag(4, [(0, 1), (0, 2), (2, 3)])
    depths = compute_depths(dag)
    truth = {0, 2, bad}
    with mock.patch.object(np.random, "default_rng") as rng:
        for call in (
                lambda: sample_pvalues(dag, depths, truth, "global", 0.0),
                lambda: signal_means(depths, truth, "global"),
                lambda: condition1_check(dag, WeightConfig(), truth, 10),
                lambda: check_heredity(dag, truth)):
            with pytest.raises(NodeIdOutOfRangeError,
                               match=f"node {re.escape(repr(bad))} "):
                call()
    rng.assert_not_called()


def test_condition1_flat_group_bound():
    # 20 isolated roots form one group; all-null truth
    dag = build_dag(20, [])
    res = condition1_check(dag, WeightConfig(lam=0.5, c=1, dw="auto"),
                           frozenset(), n_mc=10_000, seed=1)
    assert res.estimate <= 20 + 3 * res.se
    assert res.n_nulls == 20


def test_condition1_with_signals_still_bounded():
    dag = generate_graph("wide-tree")
    truth = assign_truth(dag, 0.3, 9)
    res = condition1_check(dag, WeightConfig(lam=0.5, c=1, dw="auto"), truth,
                           n_mc=4000, seed=2, setup="decremental")
    assert res.estimate <= res.bound * (1 + 3 * res.se / res.estimate)


def test_condition1_random_tree_with_truth():
    rng = np.random.default_rng(10)
    m = 30
    dag = build_dag(m, [(int(rng.integers(0, j)), j) for j in range(1, m)])
    truth = assign_truth(dag, 0.4, 10)
    res = condition1_check(dag, WeightConfig(lam=0.5, c=1, dw="auto"), truth,
                           n_mc=10_000, seed=3)
    assert res.estimate <= res.bound + 3 * res.se


def test_resolve_workers_env(monkeypatch):
    from focusfdr.simulate import resolve_workers

    monkeypatch.delenv("FOCUSFDR_THREADS", raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv("FOCUSFDR_THREADS", "3")
    assert resolve_workers() == 3
    monkeypatch.setenv("FOCUSFDR_THREADS", "0")
    assert resolve_workers() >= 1
    assert resolve_workers(2) == 2
    for bad in ("abc", "-3", "1.5"):
        monkeypatch.setenv("FOCUSFDR_THREADS", bad)
        with pytest.raises(ValueError, match=f"FOCUSFDR_THREADS .* {bad!r}"):
            resolve_workers()
        assert resolve_workers(2) == 2


def test_resolve_workers_explicit_argument_follows_env_contract(monkeypatch):
    # an explicit count means what FOCUSFDR_THREADS means: a nonnegative
    # integer, 0 for all cores; anything else is refused, not clamped
    from focusfdr.simulate import resolve_workers

    monkeypatch.setenv("FOCUSFDR_THREADS", "3")
    assert resolve_workers(0) == (os.cpu_count() or 1)
    monkeypatch.setenv("FOCUSFDR_THREADS", "0")
    assert resolve_workers(1) == 1
    assert resolve_workers(np.int64(2)) == 2
    for bad in (-3, True, False, 2.7, 2.0, "2"):
        with pytest.raises(ValueError, match=re.escape(
                "n_workers (0 = all cores) must be an integer >= 0, "
                f"got {bad!r}")):
            resolve_workers(bad)
    with pytest.raises(ValueError, match="n_workers"):
        run_simulation(SimConfig(n_reps=1), n_workers=-1)


def test_superuniformity_leaves_exact():
    dag = build_dag(3, [(0, 1), (1, 2)])
    [res] = superuniformity_check(dag, (Combiner("fisher"),), n_mc=30_000,
                                 seed=3)
    # the leaf keeps its own uniform p-value: F(t) = t within noise both ways
    leaf_cdf = res.cdf[2]
    for j, t in enumerate(res.thresholds):
        assert abs(leaf_cdf[j] - t) <= 4 * res.se[j]


def test_superuniformity_chain_root_fisher_and_simes():
    dag = build_dag(3, [(0, 1), (1, 2)])
    for name in ("fisher", "simes"):
        [res] = superuniformity_check(dag, (Combiner.from_name(name),),
                                      n_mc=30_000, seed=4)
        assert res.max_excess_z() <= 3.5


@pytest.mark.parametrize("n_mc", [0, -3])
def test_monte_carlo_checks_reject_no_replications(n_mc):
    dag = generate_graph("deep-tree")
    with pytest.raises(ValueError, match=f"n_mc must be an integer >= 1, "
                                         f"got {n_mc}"):
        condition1_check(dag, WeightConfig(), frozenset(), n_mc)
    with pytest.raises(ValueError, match="n_mc must be an integer >= 1"):
        superuniformity_check(dag, (Combiner("simes"),), n_mc)


SIX_COMBINERS = [Combiner.from_name(name) for name in
                 ("fisher", "stouffer", "simes", "tippett", "orderstat:2",
                  "bonferroni")]


def superuniformity_oracle(dag, combiner, n_mc, seed, thresholds):
    """One combiner's check as a draw, a whole smoothed block and its
    per-column CDF."""
    block = np.random.default_rng(seed).uniform(size=(n_mc, dag.m))
    smoothed = smooth_rows(dag, block, combiner)
    ts = np.asarray(thresholds, dtype=float)
    cdf = np.stack([(smoothed <= t).mean(axis=0) for t in ts], axis=1)
    return cdf, np.sqrt(ts * (1.0 - ts) / n_mc)


@given(graph_seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["dag", "tree", "edgeless"]),
       order=st.permutations(SIX_COMBINERS),
       again=st.sampled_from(SIX_COMBINERS),
       n_mc=st.sampled_from([1, 2, 37]), seed=st.integers(0, 2**32 - 1),
       thresholds=st.lists(st.floats(0.0, 1.0, exclude_min=True,
                                     exclude_max=True),
                           min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_superuniformity_matches_whole_block_oracle(graph_seed, shape, order,
                                                    again, n_mc, seed,
                                                    thresholds):
    rng = np.random.default_rng(graph_seed)
    if shape == "edgeless":
        dag = build_dag(int(rng.integers(1, 13)), [])
    else:
        dag = (random_tree if shape == "tree" else random_dag)(rng, 12)
    combiners = [*order, again]
    results = superuniformity_check(dag, combiners, n_mc, seed, thresholds)
    assert len(results) == len(combiners)
    for combiner, res in zip(combiners, results):
        cdf, se = superuniformity_oracle(dag, combiner, n_mc, seed,
                                         thresholds)
        assert res.thresholds == tuple(thresholds)
        assert np.array_equal(res.cdf, cdf) and np.array_equal(res.se, se)


@pytest.fixture
def uniform_draws(monkeypatch):
    """The size of every ``Generator.uniform`` call made on a generator
    from ``np.random.default_rng``, and of every ``standard_normal`` call,
    the draw of ``condition1_check``."""
    sizes, default_rng = [], np.random.default_rng

    class Counting:
        def __init__(self, *args, **kwargs):
            self._gen = default_rng(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._gen, name)

        def uniform(self, *args, **kwargs):
            sizes.append(kwargs.get("size"))
            return self._gen.uniform(*args, **kwargs)

        def standard_normal(self, *args, **kwargs):
            sizes.append(args[0] if args else kwargs.get("size"))
            return self._gen.standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    return sizes


@pytest.mark.parametrize("n_mc, seed, named", [
    (2.5, 0, "n_mc must be an integer >= 1, got 2.5"),
    (10.0, 0, "n_mc must be an integer >= 1, got 10.0"),
    (True, 0, "n_mc must be an integer >= 1, got True"),
    ("10", 0, "n_mc must be an integer >= 1, got '10'"),
    (10, -1, "seed must be an integer >= 0, got -1"),
    (10, 1.5, "seed must be an integer >= 0, got 1.5"),
    (10, False, "seed must be an integer >= 0, got False"),
    (10, [1, 2], r"seed must be an integer >= 0, got \[1, 2\]")])
def test_monte_carlo_checks_reject_bad_n_mc_and_seed(uniform_draws, n_mc,
                                                     seed, named):
    # unchecked, n_mc=2.5 and seed=-1 fail inside numpy naming no field,
    # and n_mc=True runs as one replication
    dag = generate_graph("deep-tree")
    with pytest.raises(ValueError, match=f"^{named}$"):
        superuniformity_check(dag, (Combiner("simes"),), n_mc, seed)
    with pytest.raises(ValueError, match=f"^{named}$"):
        condition1_check(dag, WeightConfig(), frozenset(), n_mc, seed)
    assert uniform_draws == []


@pytest.mark.parametrize("graph", ["deep-tree", "dag"])
@pytest.mark.parametrize("n_mc", [3, 9, 10])
def test_superuniformity_streams_chunks_as_one_block(uniform_draws,
                                                     monkeypatch, graph,
                                                     n_mc):
    # chunks of three rows: n_mc at one chunk, three whole chunks, and
    # three and a partial last one
    dag = (generate_graph(graph) if graph == "deep-tree"
           else random_dag(np.random.default_rng(5), 12))
    monkeypatch.setattr(simulate_module, "_NULL_CHUNK_ENTRIES", 3 * dag.m)
    results = superuniformity_check(dag, SIX_COMBINERS, n_mc, seed=7)
    rows = [size[0] for size in uniform_draws]
    assert rows == [3] * (n_mc // 3) + [n_mc % 3] * (n_mc % 3 > 0)
    assert all(size == (k, dag.m) for size, k in zip(uniform_draws, rows))
    for combiner, res in zip(SIX_COMBINERS, results):
        cdf, se = superuniformity_oracle(dag, combiner, n_mc, 7,
                                         res.thresholds)
        assert np.array_equal(res.cdf, cdf) and np.array_equal(res.se, se)


# Phi^{-1}(1 - 0.001 / 30): a 0.1% family-wise budget over the root's five
# thresholds under each of six combiners
STAR_Z_BOUND = float(stats.norm.isf(0.001 / 30))


@pytest.mark.parametrize("name", [
    "stouffer", "simes", "tippett", "orderstat:2", "bonferroni",
    pytest.param("fisher", marks=pytest.mark.xfail(
        strict=True, reason="Known defect: chisq_survival underflows past "
        "x/2 ~ 708, so the root's Fisher CDF is 1.0 at every threshold"))])
def test_superuniformity_star_root_past_fishers_limit(name):
    # the root's segment holds 2,001 entries, past the 709 at which
    # Fisher's calibration breaks down
    dag = build_dag(2001, [(0, leaf) for leaf in range(1, 2001)])
    [res] = superuniformity_check(dag, (Combiner.from_name(name),),
                                  n_mc=500, seed=0)
    z = (res.cdf[0] - np.asarray(res.thresholds)) / res.se
    assert z.max() <= STAR_Z_BOUND


@pytest.mark.parametrize("thresholds, named", [
    ((0.0, 0.5), "0.0"), ((1.0,), "1.0"), ((0.5, 1.5), "1.5"),
    ((), "need a non-empty list or tuple"),
    ((float("nan"),), "nan")])
def test_superuniformity_rejects_bad_thresholds(uniform_draws, thresholds,
                                                named):
    dag = build_dag(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=f"thresholds: .*{named}"):
        superuniformity_check(dag, (Combiner("simes"),), 10,
                              thresholds=thresholds)
    assert uniform_draws == []


@pytest.mark.parametrize("thresholds", [0.5, None, {0.1: 1}, "0.1",
                                        np.array([0.1, 0.5])],
                         ids=["bare", "None", "dict", "str", "array"])
def test_superuniformity_thresholds_must_be_a_list_or_tuple(uniform_draws,
                                                            thresholds):
    # unchecked, a number or None ends in a TypeError from len() and a
    # dict in one from float()
    dag = build_dag(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError) as err:
        superuniformity_check(dag, (Combiner("simes"),), 10,
                              thresholds=thresholds)
    assert str(err.value) == ("thresholds: need a non-empty list or tuple, "
                              f"got {thresholds!r}")
    assert uniform_draws == []


@pytest.mark.parametrize("call", [
    lambda dag: superuniformity_check(dag, Combiner("simes"), 10),
    lambda dag: superuniformity_check(dag, ["simes"], 10),
    lambda dag: superuniformity_check(dag, [], 10),
    lambda dag: check_superuniformity(n_mc=10, combiners=()),
    lambda dag: check_superuniformity(n_mc=10, combiners="simes"),
    lambda dag: check_superuniformity(n_mc=10, combiners=5),
    lambda dag: check_superuniformity(n_mc=10, combiners=[Combiner("simes")]),
], ids=["one-combiner", "names", "empty", "check-empty", "check-str",
        "check-number", "check-combiner"])
def test_superuniformity_rejects_bad_combiners_before_drawing(
        uniform_draws, monkeypatch, call):
    # unchecked, these fail only after the draw (a TypeError, an
    # AttributeError), return [], divide by a zero cell count, or read a
    # name one character at a time
    dag = generate_graph("deep-tree")

    def no_graph(family):
        raise AssertionError("built the graph")

    monkeypatch.setattr("focusfdr.checks.generate_graph", no_graph)
    with pytest.raises(ValueError, match="^combiners: need "):
        call(dag)
    assert uniform_draws == []


def test_check_superuniformity_draws_its_null_block_once(uniform_draws):
    names = ("simes", "fisher", "stouffer", "bonferroni", "tippett")
    ok, lines = check_superuniformity(n_mc=50, seed=1, combiners=names)
    assert uniform_draws == [(50, generate_graph("deep-tree").m)]
    assert [line.split(":")[0] for line in lines] == list(names)


def test_check_superuniformity_memory_does_not_grow_with_n_mc():
    # one chunk and its temporaries (a threshold's mask, a combiner's slab
    # arrays) are live at a time, so 16 chunks' worth of rows peaks where 4
    # chunks' worth does, below 1.8 chunks; a chunk kept alive through the
    # next draw would take the peak past 2 chunks
    m = generate_graph("deep-tree").m
    rows = simulate_module._NULL_CHUNK_ENTRIES // m
    check_superuniformity(n_mc=2, seed=3)
    peaks = []
    for chunks in (4, 16):
        tracemalloc.start()
        try:
            check_superuniformity(n_mc=chunks * rows, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
    assert peaks[0] <= 1.8 * rows * m * 8


def test_check_superuniformity_keeps_no_smoothed_block():
    # live at once: the null block, one combiner's (n_mc, #inner) values
    # (10% of the block) and one slab's temporaries; a smoothed copy of the
    # block would take the peak past twice the block
    n_mc = 2000
    nbytes = n_mc * generate_graph("deep-tree").m * 8
    check_superuniformity(n_mc=2, seed=3)
    tracemalloc.start()
    try:
        check_superuniformity(n_mc=n_mc, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * nbytes


def test_monte_carlo_checks_on_an_empty_graph():
    # both checks size their row chunks by the node count, which is 0 here
    dag = build_dag(0, [])
    results = superuniformity_check(dag, SIX_COMBINERS, n_mc=40, seed=2)
    assert len(results) == len(SIX_COMBINERS)
    for res in results:
        assert res.cdf.shape == (0, len(res.thresholds))
        assert np.all((res.se > 0) & (res.se < 1))
    res = condition1_check(dag, WeightConfig(), frozenset(), n_mc=30)
    assert (res.estimate, res.se, res.n_nulls, res.bound) == (0.0, 0.0, 0,
                                                              0.0)


@pytest.mark.parametrize("rows", [256, 300, 1000])
def test_column_counts_match_count_nonzero(rows):
    # more than 255 rows, so a uint8 count would wrap; the thresholds take
    # ties with the smoothed values, and 1.0 counts every entry
    rng = np.random.default_rng(rows)
    dag = random_dag(rng, 30)
    inner, indptr, indices = inner_segments(dag)
    block = rng.uniform(size=(rows, dag.m))
    block[:, :3] = 0.05
    ts = np.array([0.01, 0.05, 0.5, 1.0])
    xs = [block, block[:, ::2], np.asfortranarray(block)]
    xs += [combine_segments(comb, block, inner, indptr, indices)
           for comb in SIX_COMBINERS]
    for x in xs:
        want = np.stack([np.count_nonzero(x <= t, axis=0) for t in ts],
                        axis=1)
        assert np.array_equal(simulate_module._column_counts(x, ts), want)
    assert want[:, -1].tolist() == [rows] * inner.size

"""Acceptance gate: one verdict line per shipped guarantee.

Each test prints "acceptance: <label>: PASS|FAIL" so a transcript of the
run doubles as the checklist. The checks exercise the public surface end
to end: the worked blend example, the relative-risk reference table, the
oracle equivalences behind the evaluation suite, the bound that the ideal
configuration report must dominate, enumeration cardinalities, statistics
references, and byte-level determinism across worker counts.
"""

import json
import random
import time

from scipy import stats as scipy_stats

from smelloc import combine
from smelloc.cli import main
from smelloc.combine import (
    System,
    TechniqueScores,
    blend,
    config_search,
    curve_shape,
    enumerate_configs,
    make_config,
    normalize,
    optimize_alpha,
    sweep_alpha,
)
from smelloc.index import rank
from smelloc.metrics import (
    METRIC_NAMES,
    cliffs_delta,
    effect_size_label,
    evaluate_ranking,
    metric_report,
    top_count,
    wilcoxon_signed_rank,
)
from smelloc.risk import relative_risk
from smelloc.smells import (
    ALL_TYPE_NAMES,
    SMELL_TYPE_BY_NAME,
    SmellConfiguration,
    SmellInstance,
    is_original_index,
    smell_values,
)

from _oracles import (
    average_precision_exhaustive,
    cliffs_delta_pairwise,
    first_gold_rank_exhaustive,
    relative_risk_by_counting,
    top_hit_exhaustive,
)
from conftest import (
    HBASE_EXPECTED_TOP10,
    RANDOM_TYPE_POOL,
    RISK_EXPECTED_S2,
    RISK_EXPECTED_S5,
    RISK_REFERENCE,
    RISK_TOTALS,
    build_risk_reference_dataset,
    random_system,
    write_hbase_fixture,
    write_java_system,
)

# Five selector sets with distinct proper subsets, so the enumeration and
# dominance checks run over the same shape of grid the search command uses.
FIXED_SELECTORS = {
    "s1": frozenset(ALL_TYPE_NAMES),
    "s2": frozenset(sorted(ALL_TYPE_NAMES)[:10]),
    "s3": frozenset(sorted(ALL_TYPE_NAMES)[:6]),
    "s4": frozenset(sorted(ALL_TYPE_NAMES)[:3]),
    "s5": frozenset(sorted(ALL_TYPE_NAMES)[:5]),
}


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    print(f"acceptance: {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance check failed: {label}" + (f" ({detail})" if detail else "")


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_blend_example_reference_ranking(tmp_path):
    """The worked example: blending at alpha 0.31 reproduces the published
    ranking and every blended value within 0.001, in under a second."""
    fixture = write_hbase_fixture(tmp_path)
    out = tmp_path / "blend.jsonl"
    start = time.perf_counter()
    rc = main(
        [
            "combine",
            "--scores",
            str(fixture["scores"]),
            "--smells",
            str(fixture["smells"]),
            "--alpha",
            "0.31",
            "--out",
            str(out),
        ]
    )
    elapsed = time.perf_counter() - start
    rows = _read_jsonl(out)
    got = [(r["module"], r["score"]) for r in rows[:10]]
    order_ok = [m for m, _ in got] == [m for m, _ in HBASE_EXPECTED_TOP10]
    values_ok = all(
        abs(score - want) <= 0.001
        for (_, score), (_, want) in zip(got, HBASE_EXPECTED_TOP10)
    )
    fast_enough = elapsed < 1.0
    _verdict(
        "blend example ranking",
        rc == 0 and order_ok and values_ok and fast_enough,
        f"order_ok={order_ok} values_ok={values_ok} elapsed={elapsed:.3f}s",
    )


def test_risk_table_reference_counts(tmp_path):
    """The full-scale relative-risk table: all 16 type rows, the Total row,
    and the derived selector sets match the reference within 0.001."""
    universe, buggy, instances = build_risk_reference_dataset()
    modules = tmp_path / "modules.txt"
    modules.write_text("".join(m + "\n" for m in universe), encoding="utf-8")
    bugs = tmp_path / "bugs.json"
    bugs.write_text(json.dumps([{"id": "ALL", "gold": buggy}]), encoding="utf-8")
    smells = tmp_path / "smells.json"
    smells.write_text(
        json.dumps(
            [
                {
                    "type": inst.type.name,
                    "module": inst.module,
                    "severity": inst.severity,
                    **(
                        {"method": inst.method_signature}
                        if inst.method_signature
                        else {}
                    ),
                }
                for inst in instances
            ]
        ),
        encoding="utf-8",
    )
    out = tmp_path / "risk.csv"
    selectors_out = tmp_path / "selectors.json"
    rc = main(
        [
            "risk",
            "--modules",
            str(modules),
            "--bugs",
            str(bugs),
            "--smells",
            str(smells),
            "--out",
            str(out),
            "--selectors-out",
            str(selectors_out),
        ]
    )

    import csv

    with open(out, newline="", encoding="utf-8") as fh:
        table = {row[0]: row for row in csv.reader(fh)}
    bad = []
    for name, (m_t, b_t, risk, risk_star, rr) in RISK_REFERENCE.items():
        row = table[name]
        if int(row[1]) != m_t or int(row[2]) != b_t:
            bad.append(f"{name} counts")
        if abs(float(row[3]) - risk) > 0.001:
            bad.append(f"{name} risk")
        if abs(float(row[4]) - risk_star) > 0.001:
            bad.append(f"{name} risk*")
        if abs(float(row[5]) - rr) > 0.001:
            bad.append(f"{name} rr")
    total = table["Total"]
    if int(total[1]) != RISK_TOTALS["smelly_modules"]:
        bad.append("total modules")
    if int(total[2]) != RISK_TOTALS["smelly_buggy"]:
        bad.append("total buggy")
    if abs(float(total[3]) - RISK_TOTALS["total_risk"]) > 0.001:
        bad.append("total risk")
    if abs(float(total[4]) - RISK_TOTALS["total_risk_complement"]) > 0.001:
        bad.append("total risk*")
    if abs(float(total[5]) - RISK_TOTALS["total_rr"]) > 0.001:
        bad.append("total rr")
    everything = table["All files"]
    if int(everything[1]) != RISK_TOTALS["all_modules"]:
        bad.append("universe size")
    if int(everything[2]) != RISK_TOTALS["all_buggy"]:
        bad.append("universe buggy")

    with open(selectors_out, encoding="utf-8") as fh:
        selectors = json.load(fh)
    if set(selectors["s5"]) != set(RISK_EXPECTED_S5):
        bad.append("s5 selector")
    if set(selectors["s2"]) != set(RISK_EXPECTED_S2):
        bad.append("s2 selector")

    _verdict("risk reference table", rc == 0 and not bad, ", ".join(bad))


def test_alpha_zero_equals_baseline_ranking():
    """Blending with alpha 0 must reorder nothing: on 200 random systems
    the blended ranking equals the baseline ranking under the tie rule."""
    rng = random.Random(0xA11CE)
    config = SmellConfiguration("class", "a1", frozenset(ALL_TYPE_NAMES))
    failures = 0
    for i in range(200):
        system, scores = random_system(rng, name=f"sys{i:03d}")
        norm_smell = normalize(smell_values(system.modules, system.smells, config))
        for bug in system.bug_ids:
            raw = scores.by_bug[bug]
            baseline = [m for m, _ in rank(raw, bug).entries]
            blended = blend(normalize(raw), norm_smell, 0.0)
            reranked = [m for m, _ in rank(blended, bug).entries]
            if baseline != reranked:
                failures += 1
    _verdict(
        "alpha-zero baseline identity", failures == 0, f"{failures} mismatches"
    )


def test_bruteforce_oracle_equivalence():
    """Average precision, first-gold rank, top-N hits, Cliff's delta, and
    relative risk each match a brute-force oracle on 1,000 random inputs."""
    rng = random.Random(314159)
    max_err = 0.0
    mismatches = 0

    # Ranking metrics share one stream of random rankings.
    for i in range(1000):
        n = rng.randint(1, 40)
        modules = [f"m{j:02d}" for j in range(n)]
        rng.shuffle(modules)
        gold = set(rng.sample(modules, rng.randint(1, min(n, 8))))
        if rng.random() < 0.3:
            gold |= {f"out{j}" for j in range(rng.randint(1, 3))}
        outcome = evaluate_ranking(modules, gold, f"b{i}")
        max_err = max(
            max_err,
            abs(outcome.average_precision - average_precision_exhaustive(modules, gold)),
        )
        if outcome.rank_of_first_gold != first_gold_rank_exhaustive(modules, gold):
            mismatches += 1
        for cut in (1, 5, 10):
            want = 1 if top_hit_exhaustive(modules, gold, cut) else 0
            if top_count([outcome], cut) != want:
                mismatches += 1

    for i in range(1000):
        xs = [rng.randint(0, 6) / 3 for _ in range(rng.randint(1, 30))]
        ys = [rng.randint(0, 6) / 3 for _ in range(rng.randint(1, 30))]
        delta, _ = cliffs_delta(xs, ys)
        max_err = max(max_err, abs(delta - cliffs_delta_pairwise(xs, ys)))

    def matches(a, b):
        if a is None or b is None:
            return a is None and b is None
        if a == float("inf") or b == float("inf"):
            return a == b
        return abs(a - b) <= 1e-9

    for i in range(1000):
        n = rng.randint(2, 25)
        universe = [f"m{j:02d}" for j in range(n)]
        buggy = {m for m in universe if rng.random() < 0.3}
        typed = {}
        instances = []
        for smell_type in RANDOM_TYPE_POOL:
            members = {m for m in universe if rng.random() < 0.4}
            typed[smell_type.name] = members
            instances.extend(
                SmellInstance(
                    type=smell_type,
                    module=m,
                    severity=rng.randint(1, 10),
                    method_signature="run()"
                    if smell_type.granularity == "method"
                    else None,
                )
                for m in members
            )
        table = relative_risk(universe, buggy, instances)
        oracle = relative_risk_by_counting(universe, buggy, typed)
        for name, (risk, complement, rr) in oracle.items():
            row = table.rows[name]
            if not (
                matches(row.risk, risk)
                and matches(row.risk_complement, complement)
                and matches(row.relative_risk, rr)
            ):
                mismatches += 1

    _verdict(
        "brute-force oracle equivalence",
        mismatches == 0 and max_err <= 1e-9,
        f"mismatches={mismatches} max_err={max_err:.2e}",
    )


def test_ideal_bound_dominates_configurations():
    """The per-system ideal bound never falls below any fixed configuration
    on any metric, across 50 random multi-system datasets."""
    rng = random.Random(0xC0FFEE)
    configs = enumerate_configs(FIXED_SELECTORS)
    assert len(configs) == 150
    violations = 0
    for d in range(50):
        pairs = [
            random_system(
                rng, name=f"d{d:02d}s{k}", max_modules=14, max_reports=6,
                ensure_smells=True,
            )
            for k in range(2)
        ]
        report = config_search(pairs, configs)
        for metric in METRIC_NAMES:
            best_fixed = max(row.values[metric] for row in report.rows)
            if report.ideal[metric] < best_fixed - 1e-12:
                violations += 1
    _verdict(
        "ideal bound dominance", violations == 0, f"{violations} violations"
    )


def test_smelly_gold_blend_improves_map_with_plateau():
    """When the gold modules are exactly the smelly modules, the existence
    aggregator over the top-risk types must beat the baseline MAP at its
    best alpha and trace a plateau-shaped curve."""
    modules = tuple(f"m{i}" for i in range(8))
    smells = (
        SmellInstance(
            type=SMELL_TYPE_BY_NAME["Blob Class"], module="m0", severity=6
        ),
        SmellInstance(
            type=SMELL_TYPE_BY_NAME["God Class"], module="m1", severity=8
        ),
    )
    gold = frozenset({"m0", "m1"})
    by_bug = {}
    for j, bug in enumerate(("r1", "r2", "r3")):
        # The baseline buries the smelly gold modules at the bottom.
        per_bug = {f"m{i}": 1.0 - 0.1 * i + 0.01 * j for i in range(2, 8)}
        per_bug["m0"] = 0.05 + 0.01 * j
        per_bug["m1"] = 0.04 + 0.01 * j
        by_bug[bug] = per_bug
    system = System(
        name="crafted",
        modules=modules,
        bug_ids=("r1", "r2", "r3"),
        gold={bug: gold for bug in ("r1", "r2", "r3")},
        smells=smells,
    )
    scores = TechniqueScores(technique="t", by_bug=by_bug)
    selectors = {"s1": frozenset(ALL_TYPE_NAMES), "s5": frozenset(RISK_EXPECTED_S5)}
    config = make_config("g3", "a3", "s5", selectors)
    result = sweep_alpha(system, scores, config, "map")
    shape = curve_shape(result)
    best_alpha = optimize_alpha(result)
    improved = result.best_value > result.values[0]
    _verdict(
        "constructed improvement fixture",
        config.label() == "g3,a3,s5"
        and improved
        and shape == "plateau"
        and best_alpha > 0.0,
        f"shape={shape} best_alpha={best_alpha} "
        f"map(best)={result.best_value:.4f} map(0)={result.values[0]:.4f}",
    )


def test_top_ten_bookkeeping():
    """6,931 outcomes with exactly 4,676 top-10 hits must report the integer
    count exactly and the hit ratio as 0.6747 within 0.0001."""
    outcomes = []
    for i in range(4676):
        position = (i % 10) + 1
        ranking = [f"f{j}" for j in range(position - 1)] + ["g"]
        outcomes.append(evaluate_ranking(ranking, {"g"}, f"hit{i}"))
    for i in range(2255):
        ranking = [f"f{j}" for j in range(10)] + ["g"]
        outcomes.append(evaluate_ranking(ranking, {"g"}, f"miss{i}"))
    report = metric_report(outcomes)
    _verdict(
        "top-10 bookkeeping",
        len(outcomes) == 6931
        and report.counts[10] == 4676
        and abs(report.top[10] - 0.6747) <= 0.0001,
        f"count={report.counts[10]} ratio={report.top[10]:.6f}",
    )


def test_configuration_cardinalities():
    """The search grid holds exactly 150 configurations, 218 with the
    single-type extension, and exactly one original-index configuration."""
    grid = enumerate_configs(FIXED_SELECTORS)
    extended = enumerate_configs(FIXED_SELECTORS, include_single_type=True)
    grid_labels = {c.label() for c in grid}
    singles = [c for c in extended if c.label() not in grid_labels]
    originals = [c for c in grid if is_original_index(c)]
    _verdict(
        "configuration cardinalities",
        len(grid) == 150
        and len(extended) == 218
        and len(singles) == 68
        and len(originals) == 1
        and originals[0].label() == "g1,a1,s1",
        f"grid={len(grid)} extended={len(extended)} singles={len(singles)}",
    )


def test_signed_rank_and_effect_labels():
    """The signed-rank p-value matches the reference computation on a classic
    paired sample to 0.001, and the effect-size labels flip exactly at the
    documented thresholds."""
    x = [125, 115, 130, 140, 140, 115, 140, 125, 140, 135]
    y = [110, 122, 125, 120, 140, 124, 123, 137, 135, 145]
    own = wilcoxon_signed_rank(x, y)
    reference = float(
        scipy_stats.wilcoxon(
            x, y, zero_method="wilcox", correction=True, mode="approx"
        ).pvalue
    )
    labels = [
        effect_size_label(v) for v in (0.146, 0.147, 0.329, 0.33, 0.473, 0.474)
    ]
    _verdict(
        "statistics references",
        abs(own - reference) <= 1e-3
        and labels == ["negligible", "small", "small", "medium", "medium", "large"],
        f"p={own:.6f} reference={reference:.6f} labels={labels}",
    )


def _run_pipeline(root, system_paths, jobs):
    """Drive every command over the small synthetic system; returns the
    non-manifest report files it produced."""
    j = str(jobs)
    bugs = str(system_paths["bugs"])
    smells = str(system_paths["smells"])
    src = str(system_paths["src"])
    descriptor = str(system_paths["descriptor"])

    index = root / "index.bin"
    assert main(["index", "--snapshot", src, "--out", str(index), "--jobs", j]) == 0
    rankings = root / "rankings.jsonl"
    assert (
        main(
            [
                "rank", "--technique", "rvsm", "--bugs", bugs,
                "--index", str(index), "--out", str(rankings), "--jobs", j,
            ]
        )
        == 0
    )
    sweep = root / "sweep.json"
    assert (
        main(
            [
                "combine", "--scores", str(rankings), "--smells", smells,
                "--bugs", bugs, "--sweep", "--format", "json",
                "--out", str(sweep), "--jobs", j,
            ]
        )
        == 0
    )
    blended = root / "blended.jsonl"
    assert (
        main(
            [
                "combine", "--scores", str(rankings), "--smells", smells,
                "--alpha", "0.31", "--out", str(blended), "--jobs", j,
            ]
        )
        == 0
    )
    evaluation = root / "evaluation.json"
    assert (
        main(
            [
                "evaluate", "--rankings", str(blended), "--bugs", bugs,
                "--compare", str(rankings), "--format", "json",
                "--out", str(evaluation), "--jobs", j,
            ]
        )
        == 0
    )
    risk_csv = root / "risk.csv"
    selectors = root / "selectors.json"
    assert (
        main(
            [
                "risk", "--smells", smells, "--snapshot", src, "--bugs", bugs,
                "--out", str(risk_csv), "--selectors-out", str(selectors),
                "--jobs", j,
            ]
        )
        == 0
    )
    search_csv = root / "search.csv"
    assert (
        main(
            [
                "config-search", "--systems", descriptor, "--technique", "rvsm",
                "--out", str(search_csv), "--jobs", j,
            ]
        )
        == 0
    )
    search_json = root / "search.json"
    assert (
        main(
            [
                "config-search", "--systems", descriptor, "--technique", "rvsm",
                "--format", "json", "--out", str(search_json), "--jobs", j,
            ]
        )
        == 0
    )
    return [
        index, rankings, sweep, blended, evaluation,
        risk_csv, selectors, search_csv, search_json,
    ]


def test_job_count_invariant_outputs(tmp_path):
    """The full pipeline writes byte-identical reports whether it runs on one
    worker or several; only the manifests may differ."""
    source = tmp_path / "system"
    source.mkdir()
    system_paths = write_java_system(source)
    serial_root = tmp_path / "serial"
    parallel_root = tmp_path / "parallel"
    serial_root.mkdir()
    parallel_root.mkdir()
    serial = _run_pipeline(serial_root, system_paths, jobs=1)
    parallel = _run_pipeline(parallel_root, system_paths, jobs=2)
    differing = []
    for a, b in zip(serial, parallel):
        if a.suffix == ".json":
            with open(a, encoding="utf-8") as fh:
                left = json.load(fh)
            with open(b, encoding="utf-8") as fh:
                right = json.load(fh)
            left.pop("manifest", None)
            right.pop("manifest", None)
            if left != right:
                differing.append(a.name)
        elif a.read_bytes() != b.read_bytes():
            differing.append(a.name)
    _verdict(
        "job-count determinism", not differing, f"differs: {differing}"
    )

"""Tests of the benchmark itself: its checks catch wrong outputs, and its
tracer binds from outside the package.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import signal
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import treebound.cli  # noqa: E402
import treebound.geometry  # noqa: E402
import treebound.search  # noqa: E402
from treebound import fixtures  # noqa: E402

from reference import alpha_enclosure, enclose_root, halve_certificate, wilf  # noqa: E402
from speed import SpeedProbe, at_reference_speed  # noqa: E402
from tracing import LAYERS, Layer, Tracer, metric_names  # noqa: E402
from worker import run_job, run_rounds  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    audit_job,
    build,
    lower_bound_job,
    verify_job,
    verify_rejects_job,
)


def data(name):
    return str(fixtures.data_path(name))


def outcome(jobs):
    r = run_rounds(treebound.cli.main, jobs, seconds=0)
    return r["attempted"], r["failed"]


@pytest.fixture
def halved(tmp_path):
    path = tmp_path / "halved.cert"
    path.write_text(halve_certificate(Path(data("min_perfect_dom.cert")).read_text()))
    return str(path)


def test_correct_outputs_pass(halved):
    jobs = [verify_job(data, "indep_dom"), verify_job(data, "min_perfect_dom"),
            verify_rejects_job(data, "min_perfect_dom", halved),
            lower_bound_job("perfect_codes", ("--count", "3", "--size", "7"),
                            alpha_enclosure("perfect_codes")[1])]
    assert outcome(jobs) == (4, 0)


def test_tampered_certificate_that_should_verify_fails(halved):
    job = verify_job(data, "min_perfect_dom", cert=halved)
    assert outcome([job]) == (1, 1)


def test_wrong_expected_constant_fails():
    job = verify_job(data, "indep_dom", C={0: Fraction(2)})
    assert outcome([job]) == (1, 1)


def test_bracket_missing_the_published_decimal_fails():
    job = lower_bound_job("perfect_codes", ("--count", "3", "--size", "7"),
                          alpha_enclosure("perfect_codes")[1], rate="1.17093")
    assert outcome([job]) == (1, 1)


def test_workloads_build(tmp_path):
    for w in WORKLOADS:
        labels = [job.label for job in build(w, data, tmp_path)]
        assert labels and len(labels) == len(set(labels))


def test_tracer_rebinds_imported_names_and_repeats_counts():
    original = treebound.geometry.member_dominated_hull
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = treebound.geometry.member_dominated_hull
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert treebound.search.member_dominated_hull is wrapped
        jobs = [verify_job(data, "min_perfect_dom"),
                audit_job(data, "min_perfect_dom", 12)]
        counts = []
        for _ in range(2):
            before = tracer.snapshot()
            assert outcome(jobs) == (2, 0)
            after = tracer.snapshot()
            counts.append({k: after[k] - before[k] for k in after
                           if not k.endswith("_s")})
        assert counts[0] == counts[1]
        for name in ("numeric.mul_calls", "numeric.sign_calls",
                     "numeric.refine_calls", "geometry.member_calls",
                     "system.apply_calls"):
            assert counts[0][name] > 0
        assert counts[0]["geometry.hull_reduce_calls"] == 0
    finally:
        tracer.uninstall()
    assert treebound.search.member_dominated_hull is original


def test_missing_target_is_absent_not_an_error():
    tracer = Tracer()
    tracer.install((Layer("gone.f", ("treebound.geometry:no_such_function",),
                          ("calls", "s")),
                    Layer("gone.m", ("treebound.no_such_module:f",), ("s",))))
    assert tracer.installed == [] and tracer.snapshot() == {}


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == \
        [n for layer in LAYERS for n in metric_names(layer)]


def test_reference_values():
    lo, hi = enclose_root((-2, 0, 1), 1, 2)
    assert lo * lo < 2 < hi * hi and hi - lo < Fraction(1, 10 ** 30)
    assert [wilf(k) for k in range(1, 11)] == [1, 2, 2, 3, 4, 5, 8, 9, 16, 17]


def test_speed_probe_samples_a_job_and_leaves_its_time():
    probe = SpeedProbe()
    seconds, why = run_job(treebound.cli.main,
                           verify_job(data, "min_perfect_dom"), {}, probe)
    assert why is None and probe.samples and seconds > 0
    assert probe.spent == pytest.approx(sum(probe.samples))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_at_reference_speed():
    assert at_reference_speed(10.0, [2e-3, 2e-3]) == pytest.approx(5.0)
    assert at_reference_speed(10.0, [1e-3, 4e-3]) == pytest.approx(6.25)
    assert at_reference_speed(10.0, []) == 10.0

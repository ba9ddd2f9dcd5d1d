"""Tests of the benchmark's own parts: plans, correctness gate, tracer.

    python3 -m pytest bench/test_bench.py
"""

import cProfile
import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import pstats
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from krallm1 import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

CRITERION_6 = ["limit-scan", "--beta", "1", "--M", "1", "--n-max", "6"]
# One small invocation per command of the q-matrix workload and one of
# exact-limit; between them they reach every binding copied by
# ``from ... import``.
SMALL = {
    "verify-m1": ["verify-m1", "--beta", "1/2", "--M", "-1/4",
                  "--n-max", "4"],
    "limit-scan": ["limit-scan", "--beta", "3/2", "--M", "-1/3",
                   "--n-max", "2"],
    "matrix-verify": ["matrix-verify", "--n-max", "3"],
}


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(list(argv))
    return status, buf.getvalue().encode()


def _traced(argv):
    tracer = Tracer()
    with tracer.installed():
        _run(argv)
    return tracer.summary()["functions"]


def _bindings():
    """Every function bound in the package's modules and on LaurentPoly."""
    package = importlib.import_module("krallm1")
    owners = [package] + [importlib.import_module(f"krallm1.{i.name}")
                          for i in pkgutil.iter_modules(package.__path__)]
    owners.append(package.LaurentPoly)
    return {(repr(owner), attr): obj for owner in owners
            for attr, obj in vars(owner).items() if inspect.isfunction(obj)}


# -- tracer -----------------------------------------------------------------

@pytest.mark.parametrize("command", sorted(SMALL))
def test_trace_counts_equal_cprofile(command):
    argv = SMALL[command]
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        profile.runcall(cli.main, list(argv))
    profiled = {key: nc for key, (cc, nc, *_) in
                pstats.Stats(profile).stats.items()}
    traced = _traced(argv)
    called = 0
    for name, fn in Tracer().targets():
        code = fn.__code__
        want = profiled.get(
            (code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert traced[name]["calls"] == want, name
        called += want > 0
    assert called > 10


def test_by_name_imports_are_wrapped_and_restored():
    from krallm1 import matrix_op, minus_one, qjacobi
    before = _bindings()
    with Tracer().installed():
        assert minus_one.rep_coeff_reconstruct is not \
            before[(repr(qjacobi), "rep_coeff_reconstruct")]
        assert minus_one.rep_coeff_reconstruct is \
            qjacobi.rep_coeff_reconstruct
        assert matrix_op.transformed_recurrence_m1 is \
            minus_one.transformed_recurrence_m1
        assert matrix_op.is_positive_definite is \
            minus_one.is_positive_definite
        assert hasattr(matrix_op.is_positive_definite, "__wrapped__")
    assert _bindings() == before


def test_roadmap_counts():
    fns = _traced(CRITERION_6)
    assert fns["qjacobi.rep_coeff_reconstruct"]["calls"] == 132
    fns = _traced(["matrix-verify", "--n-max", "12"])
    assert fns["matrix_op._chains"]["calls"] == 116
    assert fns["minus_one.transformed_recurrence_m1"]["calls"] == 1703


def test_self_times_partition_the_traced_time():
    tracer = Tracer()
    with tracer.installed():
        _run(SMALL["verify-m1"])
    fns = tracer.summary()["functions"]
    top = sum(tracer._end[i] - tracer._start[i]
              for i in range(len(tracer._start)) if tracer._parent[i] < 0)
    assert sum(f["self_s"] for f in fns.values()) == pytest.approx(top)


# -- correctness gate ------------------------------------------------------

def test_criterion_6_counts_as_correct():
    plan = workloads.Plan("q-matrix", 7)
    inv = next(i for i in plan.round(0) if i.failing)
    assert inv.argv == CRITERION_6
    status, report = _run(inv.argv)
    assert checks.check(inv, status, report) == (None, 7 * 4 * 4)


def _verify_m1():
    inv = workloads.Invocation("verify-m1", 4, (("beta", "1/2"),
                                                ("M", "-1/4")))
    status, report = _run(inv.argv)
    return inv, status, json.loads(report)


def test_gate_passes_a_correct_report():
    inv, status, obj = _verify_m1()
    reason, count = checks.check(inv, status, json.dumps(obj).encode())
    assert reason is None
    assert count == sum(checks.expected_records(inv).values())


@pytest.mark.parametrize("tamper", ["drop", "duplicate", "flip", "point"])
def test_gate_rejects_a_tampered_report(tamper):
    inv, status, obj = _verify_m1()
    records = obj["checks"]
    if tamper == "drop":
        records.pop()
    elif tamper == "duplicate":
        records.append(records[0])
    elif tamper == "flip":
        records[3]["status"] = "fail"
    else:
        records[0]["params"]["M"] = "-1/5"
    reason, _ = checks.check(inv, status, json.dumps(obj).encode())
    assert reason is not None


def test_gate_checks_gram_cells_and_golden_digest():
    inv = workloads.Invocation("gram", 3, (("beta", "2"), ("M", "-1/2")))
    status, report = _run(inv.argv)
    assert checks.check(inv, status, report) == (None, 16 + 4)
    obj = json.loads(report)
    obj["gram"][0][2] = "1/9"
    assert checks.check(inv, status, json.dumps(obj).encode())[0]
    assert checks.check(inv, status, report, golden="0" * 16)[0]
    assert checks.check(inv, 1, report)[0]


def test_speed_scale_interpolates_between_probes():
    ref = speed.REF_S
    probes = [(10.0, ref), (20.0, ref / 2)]
    assert speed.scale(5.0, probes) == pytest.approx(1.0)
    assert speed.scale(15.0, probes) == pytest.approx(1 / 0.75)
    assert speed.scale(25.0, probes) == pytest.approx(2.0)


def test_max_rational_bits_ignores_floats():
    text = b'{"lhs": "1.25e-70", "rhs": "-1024/3", "n": 7}'
    assert checks.max_rational_bits(text) == 11


# -- plans -----------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_plans_are_seeded_and_never_repeat_a_point(workload):
    first = workloads.Plan(workload, 3)
    again = workloads.Plan(workload, 3)
    other = workloads.Plan(workload, 4)
    rounds = range(20)
    argvs = [i.argv for r in rounds for i in first.round(r)]
    assert argvs == [i.argv for r in rounds for i in again.round(r)]
    assert argvs != [i.argv for r in rounds for i in other.round(r)]
    invs = first.warmups + [i for r in rounds for i in first.round(r)]
    points = Counter(i.point for i in invs if i.point)
    assert max(points.values()) == 1
    assert len({tuple(i.argv) for i in invs}) == len(invs)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_rounds_share_one_size_mix(workload):
    plan = workloads.Plan(workload, 5)

    def mix(r):
        return Counter((i.command, i.n_max, bool(i.point))
                       for i in plan.round(r) if not i.failing)

    explicit = {r: Counter({k: v for k, v in mix(r).items() if k[2]})
                for r in range(8)}
    assert all(explicit[r] == explicit[0] for r in explicit)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _ in run.LAYER_METRICS]
    units = dict(run.LAYER_METRICS)
    assert all(m["unit"] == units[m["name"]] for m in spec["per_layer"])

"""gqlab benchmark: times what users wait on and checks every output.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one caller, no threads, at most one child process
at a time):

* ``verify``: each op clears every gqlab cache and runs ``run_suite()``.
* ``export``: each op clears every cache and renders the 8 export pairs
  through ``render_export`` in an order drawn from the seed.
* ``cli-verify``, ``cli-export``, ``cli-classify``: each op is one cold
  ``python -m gqlab.cli`` process against the checkout's ``src/``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, taken from untraced ops.  Their times are scaled to a
reference machine speed: a fixed pure-Python loop, timed before and after
each op, tells how fast the machine runs at that moment.  With ``--trace 1``
the line carries the per-layer metrics, from traced ops alternated with
untraced ones, averaged per input and then over every input.  The line
before it records the run's provenance (git sha, dirty flag, Python version,
nproc, seed) and extra detail.  A wrong output, a wrong exit code or a
raised exception makes an op fail; failures are counted, not fatal.  See
perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import Tracer, gqlab_modules

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 7
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 10
REFERENCE_LOOP_N = 20000
# The loop's fastest time on the 2-CPU Xeon (2.1 GHz) host with Python 3.11.7
# this benchmark was tuned on.  It sets the scale of the reported times only.
REFERENCE_LOOP_S = 0.0091
clock = time.perf_counter


def reference_loop() -> float:
    """Seconds of a fixed pure-Python loop of dict, tuple and frozenset work.

    It is the benchmark's own code, so no change to gqlab moves it: it moves
    only with the speed the machine gives this process at the moment.
    """
    started = clock()
    table: dict = {}
    acc = 0
    for i in range(REFERENCE_LOOP_N):
        key = (i & 63, (i >> 6) & 7)
        table[key] = table.get(key, 0) ^ i
        acc += len(frozenset(key)) + (i * 0x9E37 & 0xFF).bit_count()
    return clock() - started


class Speed:
    """Scales op times to the reference speed by the loop timed on each side of the op.

    On a shared host, other tenants slow every op by up to 50% for seconds to
    minutes at a time, and CPU time slows with wall time.  The loop slows in
    step, so an op's wall time times ``REFERENCE_LOOP_S`` over the loop's
    time around it is the op's time at one fixed speed.
    """

    def __init__(self) -> None:
        self.last = reference_loop()
        self.loops = [self.last]
        self.walls: list[float] = []

    def timed(self, tally: Tally, op) -> float | None:
        """Run ``op`` through ``tally``; its seconds at reference speed, or None if it failed."""
        elapsed = tally.run(op)
        before, self.last = self.last, reference_loop()
        self.loops.append(self.last)
        if elapsed is None:
            return None
        self.walls.append(elapsed)
        return elapsed * REFERENCE_LOOP_S / ((before + self.last) / 2)


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def suite_digest(doc: dict) -> str:
    """Digest of a ``suite_to_dict`` document without its timings."""
    stable = [doc["passed"]] + [
        [c["id"], c["expected"], c["actual"], c["pass"]] for c in doc["checks"]
    ]
    return sha256(json.dumps(stable))


def split_pair(key: str) -> tuple[str, str]:
    what, _, fmt = key.partition("-")
    return what, fmt


def child_env(pythonpath: Path) -> dict:
    """Environment of a child interpreter that imports gqlab from ``pythonpath`` only."""
    env = dict(os.environ, PYTHONPATH=str(pythonpath))
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    return env


def run_child(args: list[str], pythonpath: Path, cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    started = clock()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=child_env(pythonpath),
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return clock() - started, proc


def fresh_copy_of_src(tmp: Path, tag: str) -> Path:
    """A copy of src/gqlab without bytecode, so a child compiles it as a first run would."""
    dest = tmp / tag
    shutil.copytree(SRC / "gqlab", dest / "gqlab", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


class Workload:
    """One workload's pinned reference, seeded draws and scratch directory.

    Each op runs on an input from ``draw()``; ``inputs()`` lists them all.
    ``op_bytes`` holds the export bytes the last op produced.
    """

    caches: list = []  # the lazy builders each op clears; none for CLI workloads

    def __init__(self, reference: dict, rng: random.Random, tmp: Path) -> None:
        self.ref, self.rng, self.tmp = reference, rng, tmp
        self.op_bytes = 0


class InProcess(Workload):
    """An in-process workload: imports gqlab from the checkout's src/."""

    def load(self) -> None:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import gqlab.checks
        import gqlab.exports

        if not Path(gqlab.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"gqlab was imported from {gqlab.__file__}, not from {SRC}")
        self.checks, self.exports = gqlab.checks, gqlab.exports
        # every lazy builder, found by its cache_clear, bound once or many times
        found = {}
        for module in gqlab_modules():
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
        self.caches = list(found.values())

    def setup_probe(self, index: int) -> tuple[float, bool]:
        """Import gqlab and run one op in a fresh interpreter; its seconds, and if it ran."""
        copy = fresh_copy_of_src(self.tmp, f"setup-{index}")
        code = (
            "import time\n"
            "t0 = time.perf_counter()\n"
            "import gqlab.checks, gqlab.exports\n"
            f"{self.PROBE_OP}\n"
            "print(time.perf_counter() - t0)\n"
        )
        _, proc = run_child(["-c", code], copy, copy)
        if proc.returncode != 0:
            return 0.0, False
        return float(proc.stdout.split()[-1]), True

    def inputs(self) -> list:
        return [None]  # each op does the whole job; the seed only orders exports

    def draw(self):
        return None

    def prepare_op(self) -> None:
        for builder in self.caches:
            builder.cache_clear()
        gc.collect()

    def op(self, item, tracer: Tracer | None) -> tuple[float, bool]:
        self.prepare_op()
        if tracer is None:
            started = clock()
            result = self.work()
            elapsed = clock() - started
        else:
            tracer.install()
            try:
                started = clock()
                with tracer.span("op"):
                    result = self.work()
                elapsed = clock() - started
            finally:
                tracer.uninstall()
        return elapsed, self.correct(result)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Verify(InProcess):
    PROBE_OP = "gqlab.checks.run_suite()"

    def work(self):
        return self.checks.run_suite()

    def correct(self, suite) -> bool:
        doc = self.checks.suite_to_dict(suite)
        return (
            suite.passed
            and [c["id"] for c in doc["checks"]] == self.ref["check_ids"]
            and suite_digest(doc) == self.ref["suite_digest"]
        )


class Export(InProcess):
    PROBE_OP = (
        "for what, fmt in gqlab.exports.EXPORTERS:\n"
        "    gqlab.exports.render_export(what, fmt)"
    )

    def work(self):
        keys = sorted(self.ref["exports"])
        self.rng.shuffle(keys)
        return {key: self.exports.render_export(*split_pair(key)) for key in keys}

    def correct(self, bodies: dict) -> bool:
        encoded = {key: body.encode("utf-8") for key, body in bodies.items()}
        self.op_bytes = sum(len(b) for b in encoded.values())
        return {key: sha256(b) for key, b in encoded.items()} == self.ref["exports"]


class Cli(Workload):
    """A workload of cold ``python -m gqlab.cli`` processes, one at a time."""

    deck: list

    def load(self) -> None:
        if not (SRC / "gqlab" / "cli.py").is_file():
            raise RuntimeError(f"no gqlab CLI under {SRC}")
        self.deck = []
        # the set-up probes run the seed's first op, and the warm-up op repeats it
        self.first = self.draw()
        self.deck.append(self.first)

    def draw(self):
        """Next input of the seed's sequence: every input once per shuffled pass."""
        if not self.deck:
            self.deck = list(self.inputs())
            self.rng.shuffle(self.deck)
        return self.deck.pop()

    def setup_probe(self, index: int) -> tuple[float, bool]:
        """One cold process that also compiles gqlab; its seconds, and if its output was right."""
        copy = fresh_copy_of_src(self.tmp, f"setup-{index}")
        self.before(self.first)
        elapsed, proc = run_child(["-m", "gqlab.cli", *self.argv(self.first)], copy, copy)
        return elapsed, self.expected(self.first, proc)

    def op(self, item, tracer: Tracer | None) -> tuple[float, bool]:
        self.before(item)
        if tracer is None:
            elapsed, proc = run_child(["-m", "gqlab.cli", *self.argv(item)], SRC, self.tmp)
            return elapsed, self.expected(item, proc)
        trace_file = self.tmp / "child-trace.json"
        trace_file.unlink(missing_ok=True)
        argv = [str(HERE / "tracer.py"), str(trace_file), *self.argv(item)]
        elapsed, proc = run_child(argv, SRC, self.tmp)
        child = json.loads(trace_file.read_text(encoding="utf-8"))
        for name, stat in child["stats"].items():
            total = tracer.stats.setdefault(name, [0, 0.0])
            total[0] += stat["calls"]
            total[1] += stat["self_s"]
        tracer.spans.extend(tuple(span) for span in child["spans"])
        return elapsed, self.expected(item, proc)

    def before(self, item) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class CliVerify(Cli):
    def inputs(self):
        return ["verify"]

    def argv(self, item) -> list[str]:
        return ["verify", "--format", "json"]

    def expected(self, item, proc) -> bool:
        want = self.ref["cli"]["verify"]
        if proc.returncode != want["exit"]:
            return False
        try:
            doc = json.loads(proc.stdout)
        except ValueError:
            return False
        return (
            [c["id"] for c in doc["checks"]] == self.ref["check_ids"]
            and suite_digest(doc) == want["stdout"]
        )


class CliExport(Cli):
    def inputs(self):
        return sorted(self.ref["cli"]["export"])

    def out_path(self, key: str) -> Path:
        return self.tmp / f"export-{key}"

    def argv(self, key) -> list[str]:
        what, fmt = split_pair(key)
        return ["export", "--what", what, "--format", fmt, "--out", str(self.out_path(key))]

    def before(self, key) -> None:
        self.out_path(key).unlink(missing_ok=True)

    def expected(self, key, proc) -> bool:
        want = self.ref["cli"]["export"][key]
        if proc.returncode != want["exit"] or sha256(proc.stdout) != want["stdout"]:
            return False
        path = self.out_path(key)
        if not path.is_file():
            return False
        body = path.read_bytes()
        self.op_bytes = len(body)
        return sha256(body) == self.ref["exports"][key]


class CliClassify(Cli):
    def inputs(self):
        return sorted(self.ref["cli"]["classify"])

    def argv(self, bits) -> list[str]:
        return ["classify", bits]

    def expected(self, bits, proc) -> bool:
        want = self.ref["cli"]["classify"][bits]
        return proc.returncode == want["exit"] and sha256(proc.stdout) == want["stdout"]


WORKLOADS = {
    "verify": Verify,
    "export": Export,
    "cli-verify": CliVerify,
    "cli-export": CliExport,
    "cli-classify": CliClassify,
}


class Tally:
    """Attempted and failed ops; a failure is recorded, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op) -> float | None:
        """Run one op; returns its seconds if its output was correct."""
        self.attempted += 1
        try:
            elapsed, ok = op()
        except Exception:  # a crashing op is a failed op, and the run goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc(limit=3))
            return None
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("wrong output")
            return None
        return elapsed


def measure(workload, seconds: float, tally: Tally, speed: Speed) -> dict:
    """Seconds at reference speed of each correct op, by input, for ``seconds`` of closed-loop ops."""
    samples: dict = {}
    deadline = clock() + seconds
    ops = 0
    while clock() < deadline or ops == 0:
        item = workload.draw()
        elapsed = speed.timed(tally, lambda: workload.op(item, None))
        ops += 1
        if elapsed is not None:
            samples.setdefault(item, []).append(elapsed)
    return samples


def op_seconds(samples: dict) -> float:
    """The median op of each input, averaged over the inputs."""
    return statistics.fmean(statistics.median(v) for v in samples.values())


def measure_traced(workload, seconds: float, tally: Tally) -> dict:
    """Run an untraced and then a traced op on each drawn input, for ``seconds`` and
    until every input has both; per input, the untraced wall times and the traced ops."""
    runs = {item: {"untraced": [], "traced": []} for item in workload.inputs()}
    deadline = clock() + seconds
    cap = 4 * len(runs) + 20  # ops that keep failing must not keep the run going
    while clock() < deadline or (
        not all(r["untraced"] and r["traced"] for r in runs.values()) and tally.attempted < cap
    ):
        item = workload.draw()
        elapsed = tally.run(lambda: workload.op(item, None))
        if elapsed is not None:
            runs[item]["untraced"].append(elapsed)
        tracer = Tracer()
        elapsed = tally.run(lambda: workload.op(item, tracer))
        if elapsed is not None:
            runs[item]["traced"].append({
                "wall_s": elapsed,
                "bytes": workload.op_bytes,
                "stats": tracer.stats,
                "spans": tracer.spans,
            })
    return runs


def cli_probes(tmp: Path) -> tuple[float, float]:
    """Median ms of ``python -c pass`` and of ``import gqlab.cli`` beyond it."""
    interpreter = [run_child(["-c", "pass"], SRC, tmp)[0] for _ in range(PROBE_REPEATS)]
    imported = [run_child(["-c", "import gqlab.cli"], SRC, tmp)[0] for _ in range(PROBE_REPEATS)]
    base = statistics.median(interpreter)
    return base * 1000.0, (statistics.median(imported) - base) * 1000.0


def layer_metrics(names: list[str], workload, runs: dict, tmp: Path) -> dict:
    """Per-layer metrics named as in BENCHMARK.json's per_layer.

    Each is the mean over the traced ops of one input, averaged over every
    input, so the figure does not depend on how many ops fit in the run.
    """
    runs = [r for r in runs.values() if r["untraced"] and r["traced"]]

    def per_op(value_of) -> float:
        return statistics.fmean(statistics.fmean(value_of(op) for op in r["traced"]) for r in runs)

    op_ms = per_op(lambda op: op["wall_s"] * 1000.0)
    layers_ms = per_op(lambda op: sum(s for name, (_, s) in op["stats"].items() if name != "op") * 1000.0)
    traced = sum(statistics.median(op["wall_s"] for op in r["traced"]) for r in runs)
    untraced = sum(statistics.median(r["untraced"]) for r in runs)
    values = {
        "trace.overhead_ratio": traced / untraced,
        "trace.op_ms": op_ms,
        "trace.untraced_ms": op_ms - layers_ms,
        "cache.cleared": len(workload.caches),
        "exports.bytes": per_op(lambda op: op["bytes"]),
        "cli.interpreter_ms": 0.0,
        "cli.import_ms": 0.0,
    }
    if isinstance(workload, Cli):
        values["cli.interpreter_ms"], values["cli.import_ms"] = cli_probes(tmp)
    out = {}
    for metric in names:
        if metric in values:
            value = values[metric]
        else:
            name, _, kind = metric.rpartition(".")
            if kind == "calls":
                value = per_op(lambda op: op["stats"].get(name, (0, 0.0))[0])
            elif kind == "self_ms":
                value = per_op(lambda op: op["stats"].get(name, (0, 0.0))[1] * 1000.0)
            else:
                raise ValueError(f"no rule computes per-layer metric {metric!r}")
        out[metric] = value
    return out


def provenance() -> dict:
    info = {"git_sha": None, "git_dirty": None}
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = ["git", "--no-optional-locks", "-C", str(ROOT)]
        try:
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, env=env, timeout=30)
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, env=env, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return info
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.decode().strip()
            info["git_dirty"] = bool(status.stdout.strip())
    return info


def quantile_summary(samples: list[float]) -> dict:
    summary = {"n": len(samples), "min": min(samples), "p50": statistics.median(samples)}
    if len(samples) >= 100:  # a percentile needs ten samples beyond it
        summary["p90"] = statistics.quantiles(samples, n=10)[-1]
    return summary


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark gqlab and check its outputs.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # one CPU for the benchmark and its children, so that the reference loop
    # times the CPU the op ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "gqlab" / "__init__.py").is_file():
        print(f"error: no gqlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return run(args, spec, reference, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, spec: dict, reference: dict, tmp: Path) -> int:
    rng = random.Random(args.seed)
    workload = WORKLOADS[args.workload](reference, rng, tmp)
    workload.load()
    tally = Tally()
    speed = Speed()
    setup = []  # the set-up probes are checked ops too
    for index in range(0 if args.trace else SETUP_REPEATS):
        elapsed = speed.timed(tally, lambda: workload.setup_probe(index))
        if elapsed is not None:
            setup.append(elapsed)
    first = workload.draw()
    tally.run(lambda: workload.op(first, None))  # untimed warm-up op, checked like the rest
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **provenance(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "caches_cleared": len(workload.caches)}
    if args.trace:
        runs = measure_traced(workload, args.seconds, tally)
        if not any(r["untraced"] and r["traced"] for r in runs.values()):
            return no_result(tally)
        names = [m["name"] for m in spec["per_layer"]]
        metrics = layer_metrics(names, workload, runs, tmp)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        ops = [{"input": item, **op} for item, r in runs.items() for op in r["traced"]]
        trace_path.write_text(json.dumps({**detail, "ops": ops}))
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        samples = measure(workload, args.seconds, tally, speed)
        if not samples or not setup:
            return no_result(tally)
        metrics = {
            "setup_s": statistics.median(setup),
            "op_s_ref": op_seconds(samples),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        detail.update(
            setup_s_samples=setup,
            inputs=len(samples),
            op_s_all=quantile_summary([t for v in samples.values() for t in v]),
            op_wall_s=quantile_summary(speed.walls[len(setup):]),
            reference_loop_s=quantile_summary(speed.loops),
        )
    detail.update(attempted=tally.attempted, failed=tally.failed,
                  fail_ratio=tally.failed / tally.attempted, errors=tally.errors)
    print(json.dumps(detail))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def no_result(tally: Tally) -> int:
    print(f"error: no op of {tally.attempted} produced a correct output", file=sys.stderr)
    for error in tally.errors:
        print(error, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

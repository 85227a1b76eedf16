#!/usr/bin/env python3
"""PrismFlow benchmark: runs one workload for a fixed time and prints one
JSON result line.

    python3 bench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from `src/` and
works in `.bench_work/`, which it removes again. With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it wraps the prismflow
module functions, reports per-layer metrics and writes the spans to
`.bench_out/`. See bench/README.md.
"""

import os

# One BLAS/OpenMP thread, before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import summary  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("train", "sample", "condition", "evaluate")
SETUP_REPEATS = 3  # at least this many set-ups,
SETUP_MIN_S = 4.0  # and more while they take less than this in all

# name, unit: every end-to-end metric, reported by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("main_windows_per_ref", "windows/ref"),
    ("control_windows_per_ref", "windows/ref"),
    ("quality_error", "error"),
)


class ReferenceKernel:
    """A fixed numpy workload like the program's own: tanh layers on a
    batch of 512 rows with a backward-style product, and about as much
    time in batch-1 layers, whose cost is mostly call overhead.

    On a machine whose cores are shared, speed drifts (by up to a third
    for minutes on a 2-core Xeon VM). The kernel, timed before and after
    each operation, measures that speed, so throughput can be expressed
    per kernel time ("windows/ref")."""

    REPS = 12
    # Its time on a 2-core Xeon VM with one BLAS thread when no other
    # tenant slows it: the second that setup_s is expressed in.
    NOMINAL_S = 0.008

    def __init__(self):
        gen = np.random.Generator(np.random.Philox(key=[0, 0]))
        self.w1 = gen.uniform(-0.2, 0.2, (72, 48))
        self.w2 = gen.uniform(-0.2, 0.2, (48, 64))
        self.xb = gen.standard_normal((512, 72))
        self.x1 = gen.standard_normal((1, 72))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self.REPS):
            h = np.tanh(self.xb @ self.w1)
            g = (1.0 - h * h) * ((h @ self.w2) @ self.w2.T)
            self.xb.T @ g
            for _ in range(40):
                np.tanh(self.x1 @ self.w1) @ self.w2
        return time.perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    gitdir = os.path.join(root, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(gitdir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(gitdir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 2 has no dict form
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(), "cpu": cpu,
            "git_commit": git_commit(ROOT),
            "threads": {v: os.environ[v] for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")}}


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "windows/s"), ("_s", "s"), ("_ms", "ms"),
                         ("_loss", "loss"), ("_mae", "data units"),
                         ("_error", "ratio"), ("_cells", "count")):
        if name.endswith(suffix):
            return unit
    return "score"


class Measurement:
    """Outcomes of the operations of one run."""

    def __init__(self, ops, reference):
        self.ops = ops
        self.reference = reference  # () -> seconds of the reference kernel
        self.tally = summary.Tally()
        self.digests = {}  # op name -> output digest of its first repeat
        self.values = defaultdict(list)  # report name -> values, per op
        self.roles = defaultdict(list)  # role -> windows/ref per round
        self.n_ops = 0

    def run_op(self, op, recorder, refs):
        """Time one operation and check its output. A failure is counted
        and reported on stderr, never raised. Appends the reference times
        taken before and after it to `refs`. Returns the wall time, or
        None on failure."""
        self.n_ops += 1
        refs.append(self.reference())
        if recorder is not None:
            recorder.op = self.n_ops
            recorder.active = True
            root = recorder.open(f"op.{op.name}")
        t0 = time.perf_counter()
        try:
            try:
                out = op.run()
            finally:
                wall = time.perf_counter() - t0
                if recorder is not None:
                    recorder.close(root)
                    recorder.active = False
                refs.append(self.reference())
            digest, values = op.check(out)
            if self.digests.setdefault(op.name, digest) != digest:
                raise RuntimeError(f"{op.name}: output differs from its "
                                   "first repeat with the same inputs")
        except Exception:  # the benchmark keeps measuring past a failure
            self.tally.record(False)
            print(f"operation {op.name} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        self.tally.record(True)
        per_s = op.time_key.endswith("_per_s")
        self.values[op.time_key].append(op.windows / wall if per_s else wall)
        for key, value in values.items():
            self.values[key].append(value)
        return wall

    def run_round(self, recorder=None) -> float:
        """Each operation once, in order. Returns the summed wall time.

        A role's throughput for the round is its windows over its wall
        time in reference units, taking as one unit the median of the
        reference times measured around the round's operations."""
        refs = []
        walls = {op.name: self.run_op(op, recorder, refs) for op in self.ops}
        ref = statistics.median(refs)
        self.values["reference_ms"].append(1e3 * ref)
        for role in ("main", "control"):
            ops = [op for op in self.ops if op.role == role]
            if all(walls[op.name] is not None for op in ops):
                self.roles[role].append(
                    sum(op.windows for op in ops)
                    / sum(walls[op.name] / ref for op in ops))
        return sum(w for w in walls.values() if w is not None)


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prismflow", "__init__.py")):
        print(f"error: no prismflow package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import prismflow
    import workloads
    if not os.path.abspath(prismflow.__file__).startswith(SRC + os.sep):
        print(f"error: imported prismflow from {prismflow.__file__}",
              file=sys.stderr)
        return 2

    env = environment()
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "env": env}))
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-",
                            dir=os.path.join(ROOT, ".bench_work"))
    try:
        wl = workloads.Workload(args.workload, args.seed, work)
        reference = ReferenceKernel()
        setup_walls, setup_s, setup_digests = [], [], set()
        while (len(setup_walls) < SETUP_REPEATS
               or sum(setup_walls) < SETUP_MIN_S):
            ref_before = reference()
            t0 = time.perf_counter()
            setup_digests.add(workloads.setup(wl))
            setup_walls.append(time.perf_counter() - t0)
            ref = (ref_before + reference()) / 2.0
            setup_s.append(setup_walls[-1] * ReferenceKernel.NOMINAL_S / ref)
        m = Measurement(workloads.OPS[args.workload](wl), reference)
        m.values["setup_wall_s"] = setup_walls
        for _ in setup_walls:
            m.tally.record(len(setup_digests) == 1)

        deadline = time.perf_counter() + args.seconds
        if args.trace:
            rec = spans.Recorder()
            untraced, traced = [], []
            while not traced or time.perf_counter() < deadline:
                untraced.append(m.run_round())
                patches = spans.install(rec)
                try:
                    traced.append(m.run_round(rec))
                finally:
                    spans.uninstall(patches)
            values = spans.layer_metrics(rec.spans, len(traced), untraced,
                                         traced)
            units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
            spans.write_spans(
                os.path.join(ROOT, ".bench_out",
                             f"spans-{args.workload}-seed{args.seed}.csv"),
                rec.spans, json.dumps(env))
        else:
            rounds = 0
            while not rounds or time.perf_counter() < deadline:
                m.run_round()
                rounds += 1
            quality = [v for op in m.ops if op.quality_key
                       for v in m.values[op.quality_key]]
            values = {
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "main_windows_per_ref": median_or_zero(m.roles["main"]),
                "control_windows_per_ref": median_or_zero(
                    m.roles["control"]),
                "quality_error": median_or_zero(quality),
            }
            units = dict(END_TO_END)
            print_table(args.workload, m, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run is still using it
            pass

    print(json.dumps({
        "correct": m.tally.failed == 0, "attempted": m.tally.attempted,
        "failed": m.tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0


def print_table(workload, m, setup_s) -> None:
    """Every per-operation figure: median, the tail percentile its sample
    count allows, and the count."""
    rows = [("setup_s", "s", setup_s),
            ("error_rate", "ratio", [m.tally.error_rate])]
    rows += [(k, unit_of(k), v) for k, v in m.values.items()]
    rows += [(f"{role}_windows_per_ref", "windows/ref", m.roles[role])
             for role in ("main", "control")]
    print(f"# {workload}: {m.tally.attempted} operations, "
          f"{m.tally.failed} failed")
    for name, unit, vals in rows:
        if not vals:
            continue
        d = summary.describe(vals)
        tail = "".join(f" {k}={v:.6g}" for k, v in d.items()
                       if k.startswith("p"))
        print(f"#   {name:<28} {unit:<11} median={d['median']:.6g}"
              f"{tail} n={d['n']}")


if __name__ == "__main__":
    sys.exit(main())

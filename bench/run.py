"""symfield benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; symfield is imported from ./src.  The seed
drives every generated input.  A run makes whole passes over the workload's
operations, at least three, and starts another pass only while it would end
within --seconds.  Every operation's output is checked (see checks.py) and
must be byte-identical to the first pass's.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics.  wall_s and cpu_s are a pass's,
averaged over the run's passes.  setup_s is the median over fresh
interpreters that import symfield and build the inputs, two before the first
pass and one after each pass.  --trace 1
warms up with one untraced pass, then alternates traced and untraced passes,
and reports the per-layer metrics (README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# Fixed BLAS threading, set before numpy loads; children inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
MIN_PASSES = 3
IMPORT_PROBES = 3  # fresh interpreters timed for cli.import.s
CLI_STAGES = ("gen", "fit-fn", "find-vf", "flow", "find-invariants", "flow-param",
              "sim", "transform", "fit-kde", "grid", "flow-negative")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import symfield, build the inputs and exit (times setup_s)")
    return p.parse_args(argv)


class Workload:
    """The operations of one workload plus what a pass needs around them."""

    def __init__(self, name, seed):
        import workloads

        if name not in workloads.WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        self.cli = None
        if name == "cli-pipeline":
            import symfield.cli  # noqa: F401  (the stages' own import, as setup)

            self.cli = workloads.prepare_cli(ROOT, child_env())
        self.ops = workloads.WORKLOADS[name](seed, self)

    def begin_pass(self, k):
        if self.cli is not None:
            self.cli.begin_pass(k)

    def close(self):
        if self.cli is not None:
            shutil.rmtree(self.cli.workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(self.cli.workdir))
            except OSError:  # another run still uses it
                pass

    def peak_rss_mb(self):
        if self.cli is not None:
            return self.cli.peak_rss_kb / 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_seconds():
    """User + system time of this process and of its waited-for children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def digest(outputs: dict) -> str:
    import numpy as np

    h = hashlib.sha256()
    for key in sorted(outputs):
        value = outputs[key]
        h.update(key.encode())
        if isinstance(value, bytes):
            h.update(value)
        else:
            value = np.asarray(value)
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.raised = []  # (op, reason): the operation raised or exited non-zero
        self.wrong = []  # (op, reason): the output failed its check
        self.op_wall = {}


def run_pass(workload, k, first_digests) -> Pass:
    result = Pass()
    workload.begin_pass(k)
    for op in workload.ops:
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            out = exc
        dt = time.perf_counter() - t0
        result.wall += dt
        result.cpu += cpu_seconds() - c0
        result.op_wall[op.name] = dt
        if isinstance(out, Exception):
            result.raised.append((op.name, f"{type(out).__name__}: {out}"))
            continue
        try:
            op.check(out)
            d = digest(out)
            if first_digests.setdefault(op.name, d) != d:
                raise AssertionError("output differs from the first pass's")
        except Exception as exc:
            result.wrong.append((op.name, f"{type(exc).__name__}: {exc}"))
    return result


def run_passes(workload, seconds, first_digests, between=None, before=None):
    """Whole passes, at least MIN_PASSES, while the next would end within ``seconds``.

    ``before(k)`` runs ahead of pass k and ``between()`` after each pass, both
    inside the time budget.
    """
    passes = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        if before is not None:
            before(k)
        passes.append(run_pass(workload, k, first_digests))
        p = passes[-1]
        print(f"pass {k + 1}: wall {p.wall:.4f} s, cpu {p.cpu:.4f} s, "
              f"{len(workload.ops)} ops, {len(p.raised) + len(p.wrong)} failed", flush=True)
        print("  " + ", ".join(f"{name} {t:.3f}" for name, t in p.op_wall.items()), flush=True)
        for name, reason in p.raised + p.wrong:
            print(f"  {name} failed: {reason}", flush=True)
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def fresh_interpreter_seconds(argv) -> float:
    """Wall time of a child interpreter from spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], check=True, env=child_env(),
                   stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def child_env():
    """The environment of every child: symfield from ./src, no seed override."""
    env = {k: v for k, v in os.environ.items() if k != "SYMFIELD_SEED"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def cli_import_seconds() -> float:
    """Median time of `import symfield.cli` measured inside fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import symfield.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], check=True, env=child_env(),
                             capture_output=True, text=True).stdout
        times.append(float(out.strip()))
    return statistics.median(times)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def layer_metrics(setup, traced, n_passes, probes, traced_walls, untraced_walls):
    """Per-layer metrics: span times per pass, counts per pass, exact ratios."""
    spans, counters = traced["spans"], traced["counters"]
    per = 1.0 / n_passes

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def count(name):
        return counters.get(name, 0.0)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    m = {}
    gen = setup["spans"].get("datasets.generate", (0, 0.0, 0.0))[1]
    m["datasets.generate.s"] = metric(gen + total("datasets.generate") * per, "s")
    for fn in ("design_matrix", "jacobian_stack"):
        name = f"features.{fn}"
        m[f"{name}.ns_per_cell"] = metric(ratio(total(name), count(f"{name}.cells"), 1e9), "ns")
        m[f"{name}.cells"] = metric(count(f"{name}.cells") * per, "count")
    m["manifold.minimize.s"] = metric(total("manifold.minimize") * per, "s")
    m["manifold.minimize.calls"] = metric(spans.get("manifold.minimize", (0,))[0] * per, "count")
    m["manifold.minimize.epochs"] = metric(count("manifold.minimize.epochs") * per, "count")
    m["manifold.minimize.epoch_us"] = metric(
        ratio(total("manifold.minimize"), count("manifold.minimize.epochs"), 1e6), "us")
    m["manifold.minimize.mse_gap"] = metric(count("manifold.minimize.mse_gap") * per, "loss")
    m["vfield.extended_feature_matrix.s"] = metric(total("vfield.extended_feature_matrix") * per, "s")
    m["vfield.extended_feature_matrix.mb"] = metric(count("vfield.extended_feature_matrix.mb"), "MB")
    m["vfield.invariant_feature_matrix.s"] = metric(total("vfield.invariant_feature_matrix") * per, "s")
    m["vfield.flow_integrate.step_us"] = metric(
        ratio(total("vfield.flow_integrate"), count("vfield.flow_integrate.steps"), 1e6), "us")
    m["vfield.flow_integrate.steps"] = metric(count("vfield.flow_integrate.steps") * per, "count")
    m["model_fit.fit_regression.s"] = metric(total("model_fit.fit_regression") * per, "s")
    m["model_fit.select_components_elbow.s"] = metric(
        total("model_fit.select_components_elbow") * per, "s")
    probe_s, probe_pairs = probes.get("kde", (0.0, 0))
    m["model_fit.kde_eval.mpairs_per_s"] = metric(ratio(probe_pairs, probe_s, 1e-6), "Mpairs/s")
    m["model_fit.kde_eval.probe_pairs"] = metric(probe_pairs, "count")
    m["model_fit.kde_eval.pairs"] = metric(count("model_fit.kde_eval.pairs") * per, "count")
    m["discrete.fit_density_rotation.s"] = metric(total("discrete.fit_density_rotation") * per, "s")
    m["discrete.fit_discrete.s"] = metric(total("discrete.fit_discrete") * per, "s")
    m["discrete.fit_discrete.f_evals"] = metric(count("discrete.fit_discrete.f_evals") * per, "count")
    m["discrete.fit_discrete.f_eval_us"] = metric(
        ratio(total("discrete.fit_discrete"), count("discrete.fit_discrete.f_evals"), 1e6), "us")
    m["similarity.similarity.s"] = metric(total("similarity.similarity") * per, "s")
    m["geometry.fit_map.s"] = metric(total("geometry.fit_map") * per, "s")
    for fn in ("read_csv", "write_csv"):
        name = f"serialize.{fn}"
        m[f"{name}.mb_per_s"] = metric(ratio(count(f"{name}.bytes"), total(name), 1e-6), "MB/s")
    m["serialize.load_model.s"] = metric(total("serialize.load_model") * per, "s")
    m["cli.import.s"] = metric(probes["cli_import"], "s")
    for stage in CLI_STAGES:
        m[f"cli.{stage}.s"] = metric(probes.get("cli_stages", {}).get(stage, 0.0), "s")
    from spans import LAYERS

    for layer in LAYERS:
        own = sum(s[2] for name, s in spans.items() if name.startswith(layer + "."))
        m[f"{layer}.self_s"] = metric(own * per, "s")
    m["trace.wall_s"] = metric(statistics.median(traced_walls), "s")
    m["trace.untraced_wall_s"] = metric(statistics.median(untraced_walls), "s")
    m["trace.overhead_s"] = metric(
        statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "symfield", "__init__.py")):
        print(f"error: no symfield sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.environ.pop("SYMFIELD_SEED", None)
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

    tracer = None
    if args.trace:
        import symfield.cli  # noqa: F401  (so that its namespace gets wrapped too)
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    workload = Workload(args.workload, args.seed)
    try:
        if args.setup_only:
            return 0
        result = trace_run(args, workload, tracer) if tracer else timed_run(args, workload)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


def summarize(passes, n_ops):
    raised = sum(len(p.raised) for p in passes)
    wrong = sum(len(p.wrong) for p in passes)
    return {"correct": wrong == 0, "attempted": n_ops * len(passes), "failed": raised + wrong}


def timed_run(args, workload):
    argv = [__file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    setup = []
    probe = lambda: setup.append(fresh_interpreter_seconds(argv))
    probe()
    probe()
    passes = run_passes(workload, args.seconds, {}, between=probe)
    out = summarize(passes, len(workload.ops))
    out["metrics"] = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.fmean(p.wall for p in passes), "s"),
        "cpu_s": metric(statistics.fmean(p.cpu for p in passes), "s"),
        "peak_rss_mb": metric(workload.peak_rss_mb(), "MB"),
    }
    return out


def trace_run(args, workload, tracer):
    """Pass 1 warms up untraced; then traced and untraced passes alternate."""
    from spans import empty_summary, merge

    setup = tracer.summary()
    tracer.reset()

    def before(k):
        traced = k % 2 == 1
        if traced:
            tracer.install()
        else:
            tracer.uninstall()
        if workload.cli is not None:
            workload.cli.traced = traced

    passes = run_passes(workload, args.seconds, {}, before=before)
    tracer.uninstall()
    traced, untraced = passes[1::2], passes[2::2]
    summary = merge(empty_summary(), tracer.summary())
    probes = {"cli_import": cli_import_seconds()}
    if workload.cli is not None:
        for child in workload.cli.summaries:
            merge(summary, child)
        probes["cli_stages"] = {
            stage: statistics.fmean(p.op_wall[stage] for p in traced) for stage in CLI_STAGES}
    kde = [op.probe() for op in workload.ops if op.probe is not None]
    if kde:
        probes["kde"] = (sum(s for s, _ in kde), sum(n for _, n in kde))
    out = summarize(passes, len(workload.ops))
    out["metrics"] = layer_metrics(setup, summary, len(traced), probes,
                                   [p.wall for p in traced], [p.wall for p in untraced])
    return out


if __name__ == "__main__":
    sys.exit(main())

"""Layer-by-layer end-to-end benchmark of the HTTP similarity service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serial_topk --seed 1 --seconds 15 \\
        --trace 0

For one workload and seed this generates the inputs, sets the service up
``SETUP_REPEATS`` times in fresh processes (``setup_s`` is the median),
drives the last server from this process for ``--seconds``, checks the
answers, and prints a table of every metric with its unit and sample
count. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same load once untraced
and once with span wrappers installed in the server, and reports the
per-layer metrics (see README.md). Exit status is non-zero when a
correctness check fails or the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# One BLAS thread per process (inherited by the server and its shard
# workers): those processes and the load generator already outnumber the
# cores, and several spinning BLAS pools per process make latency depend
# on how the scheduler happens to interleave them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Limits on the child processes (seconds).
BUILD_TIMEOUT_S = 120.0
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 90.0


class Server:
    """One built-and-served instance of a workload's service."""

    def __init__(self, workload: str, seed: int, db: Path, work: Path,
                 trace: bool = False):
        self.build_dir = work / "build"
        self.port_file = work / "port"
        self.result_file = work / "result.json"
        self.proc = None
        started = time.monotonic()
        _run_child(["build", "--workload", workload, "--seed", str(seed),
                    "--db", str(db), "--out", str(self.build_dir)],
                   BUILD_TIMEOUT_S)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "serve",
             "--workload", workload, "--build", str(self.build_dir),
             "--state", str(work / "state"),
             "--port-file", str(self.port_file),
             "--result", str(self.result_file), "--trace", str(int(trace))],
            stdout=subprocess.DEVNULL, start_new_session=True)
        self.port = self._wait_ready()
        self.setup_s = time.monotonic() - started

    def _wait_ready(self) -> int:
        import loadgen

        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before "
                    f"becoming ready")
            if self.port_file.exists():
                port = int(self.port_file.read_text())
                client = loadgen.Client("127.0.0.1", port, timeout=5.0)
                status, _ = client.call("GET", "/readyz")
                client.close()
                if status == 200:
                    return port
            time.sleep(0.01)
        raise RuntimeError("server not ready in time")

    def rss_mb(self) -> float:
        """Peak resident memory of the server plus its child processes."""
        total_kb = 0
        pending = [self.proc.pid]
        while pending:
            pid = pending.pop()
            try:
                status = Path(f"/proc/{pid}/status").read_text()
                children = Path(
                    f"/proc/{pid}/task/{pid}/children").read_text().split()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
            pending.extend(int(c) for c in children)
        return total_kb / 1024.0

    def stop(self) -> dict:
        """SIGTERM, wait, and return what the server wrote on exit."""
        if self.proc is None or self.proc.poll() is not None:
            return {}
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop in time") from None
        if self.proc.returncode != 0 or not self.result_file.exists():
            raise RuntimeError(
                f"server exited with {self.proc.returncode}")
        return json.loads(self.result_file.read_text())

    def kill(self) -> None:
        """SIGKILL the server and every process it forked (shard workers
        share its session's process group)."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def _run_child(args, timeout: float) -> None:
    proc = subprocess.run([sys.executable, str(HERE / "server.py"), *args],
                          stdout=subprocess.DEVNULL, timeout=timeout,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"server.py {args[0]} exited with "
                           f"{proc.returncode}")


def cpu_steal() -> tuple:
    """(steal, total) jiffies of the machine, from ``/proc/stat``.

    On a shared virtual machine, time the hypervisor gave to other guests
    shows here; a run with a high steal share measured a slower machine.
    """
    fields = [int(v) for v in Path("/proc/stat").read_text().split(
        "\n", 1)[0].split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def check_and_stop(workload, run, server: Server) -> tuple:
    """Run the workload's checks and stop the server, in the order the
    checks need; returns ``(checks, what the server wrote on exit)``."""
    if workload.checks_live_server:
        checks = workload.check(run, "127.0.0.1", server.port,
                                server.build_dir, {})
        return checks, server.stop()
    result = server.stop()
    return workload.check(run, "127.0.0.1", server.port, server.build_dir,
                          result), result


def timed_run(workload, seed: int, seconds: float, db: Path,
              work: Path, servers: list, phases: dict) -> dict:
    setups = []
    server = None
    for rep in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        shutil.rmtree(work / "serve", ignore_errors=True)
        server = Server(workload.name, seed, db, work / "serve")
        servers.append(server)
        setups.append(server.setup_s)
    phases["setup"] = sum(setups)
    started = time.monotonic()
    steal_before = cpu_steal()
    run = workload.drive("127.0.0.1", server.port, seed, seconds)
    phases["load"] = time.monotonic() - started
    steal = [b - a for a, b in zip(steal_before, cpu_steal())]
    phases["load_steal_share"] = steal[0] / max(1, steal[1])
    rss = server.rss_mb()
    started = time.monotonic()
    checks, _ = check_and_stop(workload, run, server)
    phases["checks"] = time.monotonic() - started
    from workloads import metric

    metrics = workload.end_to_end(run)
    metrics["setup_s"] = metric(statistics.median(setups), "s", len(setups))
    metrics["server_rss_mb"] = metric(rss, "MB", 1)
    return {"run": run, "metrics": metrics, "checks": checks}


def traced_run(workload, seed: int, seconds: float, db: Path, work: Path,
               servers: list, phases: dict) -> dict:
    import layers

    half = seconds / 2.0
    plain = Server(workload.name, seed, db, work / "plain")
    servers.append(plain)
    untraced = workload.drive("127.0.0.1", plain.port, seed, half)
    plain.stop()
    traced = Server(workload.name, seed, db, work / "traced", trace=True)
    servers.append(traced)
    before = layers.snapshot(traced.port, workload.name)
    run = workload.drive("127.0.0.1", traced.port, seed, half)
    after = layers.snapshot(traced.port, workload.name)
    checks, result = check_and_stop(workload, run, traced)
    metrics, layer_checks = layers.per_layer(workload, run, untraced,
                                             result["trace"], before, after)
    checks.update(layer_checks)
    return {"run": run, "metrics": metrics, "checks": checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    servers: list = []
    phases: dict = {}
    started = time.monotonic()
    try:
        db = inputs.make_inputs(args.workload, args.seed, work / "inputs")
        phases["inputs"] = time.monotonic() - started
        runner = traced_run if args.trace else timed_run
        out = runner(workload, args.seed, args.seconds, db, work, servers,
                     phases)
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's files are still there
    run, metrics, checks = out["run"], out["metrics"], out["checks"]
    attempted = len(run.outcomes)
    failed = sum(not o.ok for o in run.outcomes)
    correct = failed == 0 and bool(workloads.REQUIRED[args.workload](checks))
    if args.trace and args.workload == "serial_topk":
        # Only the serial path nests strictly (no parallel children), so
        # only there must self times add up to the client latency.
        correct = correct and bool(checks["decomposes"])
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} primary={workloads.PRIMARY[args.workload]} "
          f"secondary={workloads.SECONDARY[args.workload]}")
    for name, m in metrics.items():
        pct = f" p{m['pct']:g}" if "pct" in m else ""
        print(f"{name:28s} {m['value']:14.4f} {m['unit']:6s} "
              f"n={m['count']}{pct}")
    print(f"error_share {failed / max(1, attempted):.4f} "
          f"({failed} of {attempted})")
    phases["total"] = time.monotonic() - started
    print("phases_s " + " ".join(f"{k}={v:.3g}" for k, v in phases.items()))
    for name, value in checks.items():
        print(f"check {name}: {value}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

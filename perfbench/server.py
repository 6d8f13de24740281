"""Server side of the benchmark: one set-up step, one long-lived server.

``build``  trains, embeds and writes the bundle/partitions (timed by the
           launcher as part of ``setup_s``; see :func:`inputs.build`).
``serve``  starts the workload's service from those files through public
           API only (``SimilarityService.from_bundle``, ``ShardedService``,
           ``attach_stream``, ``make_server``), warms it up, writes its
           port to ``--port-file`` and serves until SIGTERM. On exit it
           runs the server-side checks and, when traced, writes its spans.

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: Stream window: segments roll at 64 points and idle ones age out after
#: 30 s of event time (about 1.5 s of wall time at the offered rate), so
#: eviction runs throughout the workload.
STREAM_WINDOW = {"lateness_s": 10.0, "ttl_s": 30.0, "reorder_buffer": 16,
                 "max_segment_points": 64}


def build_service(workload: str, build_dir: Path, state_dir: Path):
    """Returns ``(service, stream)``; ``stream`` is None unless ingesting."""
    from repro.serving import ShardedConfig, ShardedService, SimilarityService

    bundle = build_dir / "bundle"
    if workload == "serial_topk":
        return SimilarityService.from_bundle(bundle), None
    if workload == "sharded_mixed":
        return ShardedService(build_dir / "partitions", bundle_dir=bundle,
                              config=ShardedConfig(index="ivf"),
                              durable_dir=state_dir / "durable"), None
    from repro.streaming import StreamConfig, StreamIngestor, WindowConfig

    service = SimilarityService.from_bundle(bundle)
    stream = StreamIngestor(
        service.model.encoder, state_dir / "stream",
        StreamConfig(window=WindowConfig(**STREAM_WINDOW)))
    service.attach_stream(stream)
    return service, stream


def stream_checks(stream) -> dict:
    """Every live segment's embedding must equal ``encode_prefix`` bits."""
    caught_up = stream.catch_up(timeout_s=60.0)
    ids, embeddings = stream.window_embeddings()
    segments = stream.window_segments()
    rows = {int(i): row for i, row in zip(ids, embeddings)}
    mismatched = [sid for sid, points in segments.items()
                  if sid not in rows or not (
                      stream.encoder.encode_prefix(points).embedding
                      == rows[sid]).all()]
    return {"caught_up": caught_up, "segments": len(segments),
            "rows": len(rows), "mismatched": len(mismatched),
            "bit_identical": caught_up and not mismatched
            and len(rows) == len(segments)}


def serve(args) -> int:
    from repro.serving import make_server

    recorder, patches = None, []
    if args.trace:
        import spans as span_trace

        recorder = span_trace.Recorder()
        patches = span_trace.install(recorder)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    service, stream = build_service(args.workload, Path(args.build),
                                    Path(args.state))
    service.warmup()
    server = make_server(service)
    if recorder is not None:
        patches += span_trace.install_http(recorder,
                                           server.RequestHandlerClass)
    thread = threading.Thread(target=server.serve_forever,
                              name="perfbench-http")
    thread.start()
    port_file = Path(args.port_file)
    tmp = port_file.with_suffix(".tmp")
    tmp.write_text(str(server.server_address[1]))
    os.replace(tmp, port_file)
    stop.wait()
    server.shutdown()
    thread.join()
    server.server_close()
    result: dict = {}
    if recorder is not None:
        span_trace.uninstall(patches)
        result["trace"] = recorder.dump()
    if stream is not None:
        result["stream"] = stream_checks(stream)
    service.close()
    if stream is not None:
        stream.close()
    Path(args.result).write_text(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    build = sub.add_parser("build")
    build.add_argument("--workload", required=True)
    build.add_argument("--seed", type=int, required=True)
    build.add_argument("--db", required=True)
    build.add_argument("--out", required=True)
    run = sub.add_parser("serve")
    run.add_argument("--workload", required=True)
    run.add_argument("--build", required=True)
    run.add_argument("--state", required=True)
    run.add_argument("--port-file", required=True)
    run.add_argument("--result", required=True)
    run.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    if args.command == "build":
        import inputs

        inputs.build(args.workload, args.seed, Path(args.db), Path(args.out))
        return 0
    return serve(args)


if __name__ == "__main__":
    raise SystemExit(main())

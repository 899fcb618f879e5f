#!/usr/bin/env python3
"""The service under test, run in its own process as it is deployed.

    python3 perfbench/serve.py --src SRC --store DIR [--spans FILE]

Serves :class:`repro.service.ServiceApp` through the stdlib transport
(``repro.service.server.make_server``) on a free localhost port, prints
the port on stdout, and serves until SIGTERM. With ``--spans`` every
layer's entry point is wrapped in a span (:mod:`layers`); at shutdown
the spans, the perf counters and the cache statistics are written to
FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys

#: The benchmark's rate limiter: per-client token bucket. Both load
#: clients share one address, so this is their joint budget; it sits
#: far above what two keep-alive clients can send, and any 429 still
#: counts as a failed op.
RATE_PER_S = 1000.0
BURST = 1000.0


def _stop(signum, frame):
    raise SystemExit(0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    os.environ["REPRO_CACHE_DIR"] = args.store
    sys.path.insert(0, args.src)
    from repro import perf
    from repro.service.app import ServiceApp, ServiceConfig
    from repro.service.server import make_server

    tracer = None
    if args.spans:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    app = ServiceApp(ServiceConfig(rate_capacity=BURST, rate_per_s=RATE_PER_S))
    server = make_server(app, port=0)
    signal.signal(signal.SIGTERM, _stop)
    print(server.server_port, flush=True)
    try:
        server.serve_forever()
    except SystemExit:
        pass
    finally:
        server.server_close()
        if tracer is not None:
            with open(args.spans, "w") as fh:
                json.dump(
                    {
                        "spans": tracer.to_json(),
                        "counters": perf.snapshot()["counters"],
                        "cache_stats": perf.cache_stats(),
                        "peak_rss_kib": resource.getrusage(
                            resource.RUSAGE_SELF
                        ).ru_maxrss,
                    },
                    fh,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())

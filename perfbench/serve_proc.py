"""Serve one model artifact with ``MultiWorkerServer`` (one worker process).

Usage: ``python3 perfbench/serve_proc.py <src dir> <artifact>``.  Prints
``READY <port> <worker pid>`` once the worker accepts connections, then
serves until SIGTERM, which shuts the worker down and releases the
shared-memory segments.
"""

import multiprocessing
import signal
import sys


def _terminate(_signum, _frame):
    raise KeyboardInterrupt


def main() -> None:
    # Installed before READY is printed: a SIGTERM that arrives before
    # serve_forever installs its own handler must still shut down.
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, sys.argv[1])
    from repro.config import ServingConfig
    from repro.serving import MultiWorkerServer

    server = MultiWorkerServer(
        sys.argv[2], ServingConfig(port=0, worker_processes=1)
    )
    try:
        server.start()
        (worker,) = [
            p
            for p in multiprocessing.active_children()
            if p.name.startswith("serve-worker")
        ]
        print(f"READY {server.port} {worker.pid}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()


if __name__ == "__main__":
    main()

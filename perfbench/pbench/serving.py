"""Server processes and the closed-loop HTTP load generator.

The benchmark drives ``repro serve`` exactly as deployed: a separate
process, started from the command line, talked to over keep-alive HTTP.
Clients are threads of the benchmark process; each waits for a reply
before sending its next request (a closed loop), like the fleet router
and the sales tool's enrichment jobs that call the service.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

from pbench.core import BenchError

_SINGLE_RE = re.compile(r"serving on (http://\S+)")
_ROUTER_RE = re.compile(r"router on (http://\S+)")
_WORKER_RE = re.compile(r"worker (\d+): pid (\d+), .*direct (http://\S+),")


def split_url(url: str) -> tuple[str, int]:
    parts = urlsplit(url)
    return parts.hostname or "127.0.0.1", int(parts.port or 80)


def http_call(
    url: str,
    method: str,
    path: str,
    body: bytes | None = None,
    headers: dict[str, str] | None = None,
    timeout: float = 30.0,
) -> tuple[int, object]:
    """One JSON request on a fresh connection; returns (status, parsed body)."""
    host, port = split_url(url)
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers={
            "Content-Type": "application/json",
            "Accept": "application/json",
            **(headers or {}),
        })
        resp = conn.getresponse()
        data = resp.read()
    finally:
        conn.close()
    return resp.status, json.loads(data) if data else None


class ServerProcess:
    """One ``repro serve`` process (single worker or fleet + router).

    ``start`` returns once the service answers ``GET /readyz`` with 200
    and records the cold-start time in ``ready_s``.  ``stop`` sends
    SIGINT (the CLI's graceful path), waits, and kills the whole process
    group only if the graceful stop hangs.
    """

    def __init__(self, argv: list[str], *, env: dict[str, str], cwd: Path,
                 log_path: Path, fleet: bool = False) -> None:
        self.argv = argv
        self.env = env
        self.cwd = cwd
        self.log_path = log_path
        self.fleet = fleet
        self.url: str | None = None
        self.workers: dict[int, tuple[int, str]] = {}  # index -> (pid, url)
        self.ready_s: float | None = None
        self._proc: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None
        self._url_seen = threading.Event()

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    def pids(self) -> list[int]:
        """The main process and, for a fleet, every worker process."""
        return [self.pid] + [pid for pid, _ in self.workers.values()]

    def _read_stdout(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            match = _WORKER_RE.search(line)
            if match:
                self.workers[int(match.group(1))] = (
                    int(match.group(2)), match.group(3))
            match = (_ROUTER_RE if self.fleet else _SINGLE_RE).search(line)
            if match:
                self.url = match.group(1)
                self._url_seen.set()

    def start(self, timeout: float = 150.0) -> "ServerProcess":
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self._proc = subprocess.Popen(
                self.argv, cwd=self.cwd, env=self.env, stdout=subprocess.PIPE,
                stderr=log, text=True, start_new_session=True,
            )
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        deadline = started + timeout
        while not self._url_seen.wait(0.02):
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError(
                    f"server did not start: {' '.join(self.argv[-8:])}; "
                    f"log tail: {self.log_tail()}"
                )
        while True:
            try:
                status, _ = http_call(self.url, "GET", "/readyz", timeout=5.0)
            except OSError:
                status = 0
            if status == 200:
                break
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError(f"server never became ready: {self.log_tail()}")
            time.sleep(0.01)
        self.ready_s = time.perf_counter() - started
        return self

    def log_tail(self, n: int = 600) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-n:]
        except OSError:
            return ""

    def stop(self, timeout: float = 30.0) -> None:
        proc = self._proc
        if proc is None or proc.returncode is not None:
            return
        try:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=timeout)
        finally:
            # Fleet workers live in the server's process group; none may
            # outlive the run, even if the supervisor died uncleanly.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if self._reader is not None:
                self._reader.join(timeout=5.0)


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    endpoint: str  # "/recommend" or "/similar"
    body: bytes
    key: tuple  # identity of the input, for repeat accounting


@dataclass
class Sample:
    index: int
    endpoint: str
    request_id: str
    latency_ms: float
    status: int  # 0 = connection error
    body: dict | None


def drive(
    url: str,
    stream: list[Request],
    *,
    first: int,
    n_clients: int,
    id_prefix: str,
    seconds: float | None = None,
    count: int | None = None,
) -> tuple[list[Sample], float]:
    """Closed-loop clients over keep-alive connections.

    Clients take stream positions in order from ``first``; they stop after
    ``count`` requests or once ``seconds`` have elapsed (a request already
    sent is waited for).  Returns the samples in stream order and the wall
    time from the first send to the last reply.
    """
    if (seconds is None) == (count is None):
        raise ValueError("give exactly one of seconds or count")
    host, port = split_url(url)
    positions = itertools.count(first)
    last = first + count if count is not None else len(stream)
    exhausted = threading.Event()
    lock = threading.Lock()
    samples: list[Sample] = []
    errors: list[BaseException] = []
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else float("inf")

    def client() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        local: list[Sample] = []
        try:
            while time.perf_counter() < deadline:
                with lock:
                    index = next(positions)
                if index >= last:
                    if count is None:
                        exhausted.set()
                    break
                request = stream[index]
                request_id = f"{id_prefix}-{index}"
                headers = {"Content-Type": "application/json",
                           "X-Request-Id": request_id}
                sent = time.perf_counter()
                try:
                    conn.request("POST", request.endpoint, request.body, headers)
                    resp = conn.getresponse()
                    data = resp.read()
                    status = resp.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=30.0)
                    status, data = 0, b""
                latency_ms = (time.perf_counter() - sent) * 1000.0
                body = None
                if 200 <= status < 300:
                    try:
                        body = json.loads(data)
                    except ValueError:
                        status = 0  # a 2xx that is not JSON is a failure
                local.append(Sample(index, request.endpoint, request_id,
                                    latency_ms, status, body))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
        finally:
            conn.close()
            with lock:
                samples.extend(local)

    threads = [threading.Thread(target=client) for _ in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    if exhausted.is_set():
        raise BenchError("request stream exhausted; generate a longer stream")
    samples.sort(key=lambda s: s.index)
    return samples, elapsed


def phase_counts(samples: list[Sample]) -> dict[str, int]:
    ok = sum(1 for s in samples if 200 <= s.status < 300)
    return {"attempted": len(samples), "succeeded": ok, "failed": len(samples) - ok}


def repeat_share(stream: list[Request], samples: list[Sample]) -> float:
    """Share of sent requests whose input repeats an earlier one in the run."""
    seen: set[tuple] = set()
    repeats = 0
    for sample in samples:
        key = (sample.endpoint, stream[sample.index].key)
        repeats += key in seen
        seen.add(key)
    return repeats / max(1, len(samples))


def metrics_snapshot(url: str) -> dict:
    """The JSON ``/metrics`` view (a worker's, or the router's fleet merge)."""
    status, body = http_call(url, "GET", "/metrics")
    if status != 200 or not isinstance(body, dict):
        raise BenchError(f"GET /metrics returned {status}")
    return body


def counter_total(snapshot: dict, name: str, label: str | None = None) -> float:
    """Sum a counter over its labelled series, optionally filtered by label."""
    total = 0.0
    for key, value in snapshot.get("counters", {}).items():
        base = key.split("{", 1)[0]
        if base == name and (label is None or label in key):
            total += float(value)
    return total

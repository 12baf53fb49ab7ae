"""The ``python -m repro serve`` process, a keep-alive client, and scrapes.

The server runs with the CLI defaults except ``--port 0`` and an
explicit ``--jobs 1``, in the run's scratch directory, with the
``REPRO_*`` environment knobs removed so none of them can change what
is measured.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from common import CheckFailure

_READY_LINE = re.compile(r"serving .* on http://([\d.]+):(\d+) ")
_SAMPLE_LINE = re.compile(r"^([A-Za-z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


class Client:
    """One keep-alive HTTP/1.1 connection sending JSON bodies."""

    def __init__(self, port: int):
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, response.read()

    def post_json(self, path: str, payload) -> tuple[int, dict]:
        status, raw = self.request("POST", path, json.dumps(payload).encode())
        return status, json.loads(raw)

    def close(self) -> None:
        self._conn.close()


class Server:
    """One ``repro serve`` process over a model store."""

    def __init__(self, root: Path, store: Path, workdir: Path, tag: str):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["PYTHONUNBUFFERED"] = "1"  # the ready line must reach the log
        self._log = workdir / f"server-{tag}.log"
        with open(self._log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--store", str(store),
                 "--port", "0", "--jobs", "1"],
                cwd=workdir, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        self.port: int | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self) -> None:
        """Block until the server is bound and ``/healthz`` answers 200."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.port is None:
            match = _READY_LINE.search(self._log.read_text(errors="replace"))
            if match:
                self.port = int(match.group(2))
                break
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited at start:\n{self.log_tail()}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"server did not bind:\n{self.log_tail()}")
            time.sleep(0.005)
        while True:
            try:
                client = Client(self.port)
                status, _ = client.request("GET", "/healthz")
                client.close()
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"/healthz never answered:\n{self.log_tail()}")
            time.sleep(0.005)

    def scrape(self) -> "Scrape":
        client = Client(self.port)
        try:
            status, raw = client.request("GET", "/metrics")
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return Scrape(raw.decode())

    def log_tail(self, lines: int = 20) -> str:
        try:
            return "\n".join(self._log.read_text(errors="replace").splitlines()[-lines:])
        except OSError:
            return ""

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then SIGKILL if it hangs.

        Raises :class:`CheckFailure` if the process is still there after
        both, so no server outlives its run unnoticed.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"# server {self.pid} ignored SIGINT; killing it", flush=True)
                self.proc.kill()
                try:
                    self.proc.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
        if self.proc.poll() is None or Path(f"/proc/{self.pid}").exists():
            raise CheckFailure(f"server process {self.pid} outlived its run")


class Scrape:
    """One ``GET /metrics`` payload, summed over label sets on demand."""

    def __init__(self, text: str):
        self.samples: dict[str, list[tuple[dict[str, str], float]]] = defaultdict(list)
        for line in text.splitlines():
            match = _SAMPLE_LINE.match(line)
            if match is None:
                continue
            name, labels, value = match.groups()
            parsed = dict(_LABEL.findall(labels or ""))
            self.samples[name].append((parsed, float(value)))

    def value(self, name: str, **labels: str) -> float:
        """Sum of ``name`` over every series matching ``labels``."""
        return sum(
            value
            for series, value in self.samples.get(name, [])
            if all(series.get(k) == v for k, v in labels.items())
        )

    def delta(self, before: "Scrape", name: str, **labels: str) -> float:
        return self.value(name, **labels) - before.value(name, **labels)

    def mean_delta_ms(self, before: "Scrape", histogram: str, **labels: str) -> float:
        """Mean observation (in ms) of a seconds histogram between scrapes."""
        count = self.delta(before, f"{histogram}_count", **labels)
        if count <= 0:
            raise RuntimeError(f"no {histogram}{labels} observations between scrapes")
        return 1e3 * self.delta(before, f"{histogram}_sum", **labels) / count

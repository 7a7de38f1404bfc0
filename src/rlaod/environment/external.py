"""Bridge to an out-of-process detector over a JSON-lines protocol.

Request (one line):  {"id": <int>, "image": "<path to PPM/PNG>"}
Response (one line): {"id": <int>,
                      "detections": [{"bbox": [x_min, y_min, x_max, y_max],
                                      "score": <float>}, ...],
                      "context": [<float> x 512 or 1024]}

Transport is a child process speaking on stdio (default) or a TCP
connection; either way one request is outstanding at a time.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import ProtocolError
from ..features import reduce_context
from ..imaging import RgbImage, write_ppm
from ..imaging.png import write_png
from ..metrics import Box2D, Detection
from .detector import DetectorOutput

DEFAULT_TIMEOUT = 30.0


class _StdioTransport:
    def __init__(self, command: Sequence[str]):
        self.proc = subprocess.Popen(
            list(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        self._buf = b""

    def send_line(self, line: bytes) -> None:
        try:
            self.proc.stdin.write(line + b"\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            raise ProtocolError(f"detector process closed its input: {exc}") from exc

    def recv_line(self, timeout: float) -> bytes:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            ready, _, _ = select.select([fd], [], [], timeout)
            if not ready:
                raise ProtocolError(f"detector response timed out after {timeout}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ProtocolError("detector process closed its output")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()


class _TcpTransport:
    def __init__(self, host: str, port: int, timeout: float):
        try:
            self.sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ProtocolError(f"cannot connect to detector at {host}:{port}: {exc}") from exc
        self._buf = b""

    def send_line(self, line: bytes) -> None:
        try:
            self.sock.sendall(line + b"\n")
        except OSError as exc:
            raise ProtocolError(f"detector connection failed: {exc}") from exc

    def recv_line(self, timeout: float) -> bytes:
        self.sock.settimeout(timeout)
        while b"\n" not in self._buf:
            try:
                chunk = self.sock.recv(65536)
            except socket.timeout:
                raise ProtocolError(f"detector response timed out after {timeout}s") from None
            except OSError as exc:
                raise ProtocolError(f"detector connection failed: {exc}") from exc
            if not chunk:
                raise ProtocolError("detector closed the connection")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    def close(self) -> None:
        self.sock.close()


class ExternalDetector:
    """Client for an external detector process or service."""

    def __init__(
        self,
        command: Sequence[str] | None = None,
        address: tuple[str, int] | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        image_format: str = "ppm",
        workdir: str | Path | None = None,
    ):
        if (command is None) == (address is None):
            raise ValueError("specify exactly one of command or address")
        if image_format not in ("ppm", "png"):
            raise ValueError(f"unsupported image format {image_format!r}")
        self.timeout = timeout
        self.image_format = image_format
        self._next_id = 0
        # Connect before making the work directory: a failed connection
        # leaves no object to close.
        if command is not None:
            self._transport = _StdioTransport(command)
        else:
            self._transport = _TcpTransport(address[0], address[1], timeout)
        self._owns_workdir = workdir is None
        self._workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="rlaod_"))
        self._workdir.mkdir(parents=True, exist_ok=True)

    def detect(
        self, image: RgbImage, truths=None, seed: int = 0, precomputed_v=None
    ) -> DetectorOutput:
        """Send one image, parse one response. `truths`, `seed`, and
        `precomputed_v` are unused; they exist so oracle and external
        detectors are call-compatible."""
        req_id = self._next_id
        self._next_id += 1
        path = self._workdir / f"frame_{req_id}.{self.image_format}"
        try:
            if self.image_format == "ppm":
                write_ppm(image, path)
            else:
                write_png(image, path)
            request = json.dumps({"id": req_id, "image": str(path)})
            self._transport.send_line(request.encode("utf-8"))
            line = self._transport.recv_line(self.timeout)
        finally:
            path.unlink(missing_ok=True)
        try:
            payload = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed detector response: {exc}") from exc
        return self._parse(payload, req_id)

    def _parse(self, payload, req_id: int) -> DetectorOutput:
        if not isinstance(payload, dict):
            raise ProtocolError("detector response is not a JSON object")
        if payload.get("id") != req_id:
            raise ProtocolError(
                f"response id {payload.get('id')!r} does not match request {req_id}"
            )
        if "detections" not in payload:
            raise ProtocolError("detector response missing 'detections'")
        if "context" not in payload:
            raise ProtocolError("detector response missing 'context'")

        detections = []
        try:
            for entry in payload["detections"]:
                x0, y0, x1, y1 = entry["bbox"]
                detections.append(
                    Detection(
                        box=Box2D(float(x0), float(y0), float(x1), float(y1)),
                        score=float(entry["score"]),
                        category=int(entry.get("category", 0)),
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed detection entry: {exc}") from exc

        context = np.asarray(payload["context"], dtype=np.float64)
        if context.shape not in ((512,), (1024,)):
            raise ProtocolError(f"context length must be 512 or 1024, got {context.shape}")
        if not np.all(np.isfinite(context)):
            raise ProtocolError("context contains non-finite values")
        return DetectorOutput(detections=detections, context=reduce_context(context))

    def close(self) -> None:
        self._transport.close()
        if self._owns_workdir:
            import shutil

            shutil.rmtree(self._workdir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

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
import math
import os
import select
import shutil
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


class _LineChannel:
    """One line-framed connection: a child's stdin/stdout pipes, or a TCP
    socket. Only the opening differs; both are read and written as fds."""

    def __init__(self, command: Sequence[str] | None, address: tuple[str, int] | None,
                 timeout: float):
        self.proc = self.sock = None
        self._buf = b""
        try:
            if command is not None:
                self.proc = subprocess.Popen(
                    list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
                )
                self._out, self._in = self.proc.stdin.fileno(), self.proc.stdout.fileno()
            else:
                self.sock = socket.create_connection(address, timeout=timeout)
                self.sock.settimeout(None)  # blocking fd; select bounds each read
                self._out = self._in = self.sock.fileno()
        except OSError as exc:
            where = " ".join(command) if command is not None else "%s:%s" % address
            raise ProtocolError(f"cannot connect to detector {where}: {exc}") from exc

    def exchange(self, line: bytes, timeout: float) -> bytes:
        """Send one line and return the next line received."""
        data = line + b"\n"
        try:
            while data:
                data = data[os.write(self._out, data):]
            while b"\n" not in self._buf:
                ready, _, _ = select.select([self._in], [], [], timeout)
                if not ready:
                    raise ProtocolError(f"detector response timed out after {timeout}s")
                chunk = os.read(self._in, 65536)
                if not chunk:
                    raise ProtocolError("detector closed its output")
                self._buf += chunk
        except OSError as exc:
            raise ProtocolError(f"detector connection failed: {exc}") from exc
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


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
        self._channel = _LineChannel(command, address, timeout)
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
            line = self._channel.exchange(request.encode("utf-8"), self.timeout)
        finally:
            path.unlink(missing_ok=True)
        try:
            payload = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed detector response: {exc}") from exc
        return self._parse(payload, req_id)

    @staticmethod
    def _parse(payload, req_id: int) -> DetectorOutput:
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
                x0, y0, x1, y1 = (float(c) for c in entry["bbox"])
                if not all(map(math.isfinite, (x0, y0, x1, y1))):
                    raise ValueError(f"non-finite bbox {entry['bbox']}")
                detections.append(
                    Detection(
                        box=Box2D(x0, y0, x1, y1),
                        score=float(entry["score"]),
                        category=int(entry.get("category", 0)),
                    )
                )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"malformed detection entry: {exc}") from exc

        try:
            context = np.asarray(payload["context"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"malformed context: {exc}") from exc
        if context.shape not in ((512,), (1024,)):
            raise ProtocolError(f"context length must be 512 or 1024, got {context.shape}")
        if not np.all(np.isfinite(context)):
            raise ProtocolError("context contains non-finite values")
        return DetectorOutput(detections=detections, context=reduce_context(context))

    def close(self) -> None:
        self._channel.close()
        if self._owns_workdir:
            shutil.rmtree(self._workdir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

"""Bridge to an out-of-process detector over a JSON-lines protocol.

Request (one line):  {"id": <int>, "image": "<path to PPM/PNG>"}
Response (one line): {"id": <int>,
                      "detections": [{"bbox": [x_min, y_min, x_max, y_max],
                                      "score": <float>}, ...],
                      "context": [<float> x 512 or 1024]}

Transport is a child process speaking on stdio (default) or a TCP
connection; either way one request is outstanding at a time, and
`timeout` bounds the whole response, not each read. A response whose id
is an integer below the current request's answers a request that timed
out; it is dropped, and the reply to the current request is awaited
within the same deadline. Any other id that is not the request's is a
protocol error.

Frame file: each detector keeps one uniquely named frame file in its work
directory and rewrites it in place for every request, so every request
names the same path. A detector must read the image before it answers;
the next request overwrites it. The file is removed when a request fails
(write, exchange or parse) and when the detector closes; the next request
after a failure makes a new one.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import socket
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Sequence

from ..errors import ProtocolError
from ..features import reduce_context
from ..imaging import RgbImage, write_ppm
from ..imaging.png import write_png
from ..metrics import Box2D, Detection, finite_extent
from ..util import all_numbers, finite_floats
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

    def send(self, line: bytes) -> None:
        """Write one line."""
        data = line + b"\n"
        try:
            while data:
                data = data[os.write(self._out, data):]
        except OSError as exc:
            raise ProtocolError(f"detector connection failed: {exc}") from exc

    def read_line(self, deadline: float, timeout: float) -> bytes:
        """The next line received, by `deadline` (a `time.monotonic()`
        value `timeout` seconds after the request was sent)."""
        try:
            while b"\n" not in self._buf:
                left = deadline - time.monotonic()
                ready = left > 0 and select.select([self._in], [], [], left)[0]
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


def _late(payload, req_id: int) -> bool:
    """Whether `payload` answers an earlier request, one that timed out:
    such an answer is dropped, and reading goes on within the deadline."""
    if not isinstance(payload, dict):
        return False
    got = payload.get("id")
    return type(got) is int and 0 <= got < req_id


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
        self._frame = None  # the open frame file, made by the first request

    def _write_frame(self, image: RgbImage) -> str:
        """Rewrite the frame file in place with `image`; return its path."""
        if self._frame is None:
            try:
                self._frame = tempfile.NamedTemporaryFile(
                    prefix="frame_", suffix=f".{self.image_format}", dir=self._workdir,
                    delete=False,
                )
            except OSError as exc:
                raise ProtocolError(f"cannot make a frame file in {self._workdir}: {exc}") from exc
        frame = self._frame
        try:
            # Overwrite, then cut at the new end: truncating to zero first
            # makes the file system free and reallocate the blocks.
            frame.seek(0)
            if self.image_format == "ppm":
                write_ppm(image, frame)
            else:
                write_png(image, frame)
            frame.truncate()
        except OSError as exc:
            raise ProtocolError(f"cannot write frame {frame.name}: {exc}") from exc
        return frame.name

    def _drop_frame(self) -> None:
        """Close and remove the frame file, if there is one."""
        frame, self._frame = self._frame, None
        if frame is not None:
            try:
                frame.close()
            except OSError:
                pass  # a frame that could not be flushed is removed all the same
            Path(frame.name).unlink(missing_ok=True)

    def detect(
        self,
        image: RgbImage,
        truths=None,
        seed: int = 0,
        precomputed_v=None,
        precomputed_level=None,
    ) -> DetectorOutput:
        """Send one image, parse one response. `truths`, `seed`,
        `precomputed_v` and `precomputed_level` are unused; they exist so
        oracle and external detectors are call-compatible."""
        req_id = self._next_id
        self._next_id += 1
        try:
            request = json.dumps({"id": req_id, "image": self._write_frame(image)})
            deadline = time.monotonic() + self.timeout
            self._channel.send(request.encode("utf-8"))
            while True:
                line = self._channel.read_line(deadline, self.timeout)
                try:
                    payload = json.loads(line)
                except ValueError as exc:  # covers decode errors and over-long integers
                    raise ProtocolError(f"malformed detector response: {exc}") from exc
                if not _late(payload, req_id):
                    return self._parse(payload, req_id)
        except BaseException:
            self._drop_frame()
            raise

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
                box = finite_floats(entry["bbox"])
                score, category = entry["score"], entry.get("category", 0)
                if box is None or box.shape != (4,) or not all_numbers([score, category]):
                    raise ValueError("bbox, score and category must be finite numbers")
                b = Box2D(*box.tolist())
                if not finite_extent(b):
                    raise ValueError(f"bbox {entry['bbox']!r} has an infinite extent")
                detections.append(Detection(b, float(score), int(category)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"malformed detection entry: {exc}") from exc

        context = finite_floats(payload["context"])
        if context is None:
            raise ProtocolError("malformed context: not a list of finite numbers")
        if context.shape not in ((512,), (1024,)):
            raise ProtocolError(f"context length must be 512 or 1024, got {context.shape}")
        return DetectorOutput(detections=detections, context=reduce_context(context))

    def close(self) -> None:
        self._drop_frame()
        self._channel.close()
        if self._owns_workdir:
            shutil.rmtree(self._workdir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

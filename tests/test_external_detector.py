import io
import itertools
import json
import re
import socket
import sys
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rlaod.environment.external as external
from rlaod.environment import ExternalDetector, SceneParams, generate_scene
from rlaod.errors import ProtocolError
from rlaod.imaging import write_ppm
from rlaod.imaging.png import write_png

STUB = [sys.executable, "-m", "rlaod.environment.stub_detector"]


@pytest.fixture
def image():
    return generate_scene(0, SceneParams(width=32, height=32, count_range=(0, 0))).image


def make_fixture(tmp_path, payload):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestStdioTransport:
    def test_loopback_fixture(self, image, tmp_path):
        fixture = make_fixture(
            tmp_path,
            {
                "detections": [
                    {"bbox": [1.0, 2.0, 11.0, 12.0], "score": 0.75},
                    {"bbox": [5.0, 5.0, 9.0, 9.0], "score": 0.25, "category": 3},
                ],
                "context_length": 512,
            },
        )
        with ExternalDetector(command=STUB + ["--fixture", fixture], timeout=10) as det:
            out = det.detect(image)
        assert len(out.detections) == 2
        assert out.detections[0].box.x_max == 11.0
        assert out.detections[0].score == 0.75
        assert out.detections[1].category == 3
        assert out.context.shape == (512,)

    def test_1024_context_reduced(self, image, tmp_path):
        fixture = make_fixture(
            tmp_path, {"detections": [], "context": list(np.arange(1024.0))}
        )
        with ExternalDetector(command=STUB + ["--fixture", fixture], timeout=10) as det:
            out = det.detect(image)
        assert out.context.shape == (512,)
        assert np.array_equal(out.context, np.arange(1.0, 1024.0, 2.0))

    def test_missing_detections_key(self, image):
        with ExternalDetector(command=STUB + ["--drop-key", "detections"], timeout=10) as det:
            with pytest.raises(ProtocolError, match="detections"):
                det.detect(image)

    def test_garbage_response(self, image):
        with ExternalDetector(command=STUB + ["--garbage"], timeout=10) as det:
            with pytest.raises(ProtocolError, match="malformed"):
                det.detect(image)

    def test_timeout(self, image):
        with ExternalDetector(command=STUB + ["--sleep", "5"], timeout=0.5) as det:
            with pytest.raises(ProtocolError, match="timed out"):
                det.detect(image)

    def test_bad_context_length(self, image):
        with ExternalDetector(command=STUB + ["--context-length", "100"], timeout=10) as det:
            with pytest.raises(ProtocolError, match="context length"):
                det.detect(image)

    def test_dead_process(self, image):
        with ExternalDetector(command=[sys.executable, "-c", "pass"], timeout=5) as det:
            with pytest.raises(ProtocolError):
                det.detect(image)

    @pytest.mark.parametrize("args", [["-c", "pass"], ["-m", "rlaod.environment.stub_detector", "--garbage"]])
    def test_failed_request_removes_its_frame(self, image, tmp_path, args):
        with ExternalDetector(command=[sys.executable, *args], timeout=5, workdir=tmp_path) as det:
            with pytest.raises(ProtocolError):
                det.detect(image)
            assert list(tmp_path.iterdir()) == []

    def test_removed_workdir_is_a_protocol_error(self, image, tmp_path):
        workdir = tmp_path / "work"
        with ExternalDetector(command=STUB, timeout=10, workdir=workdir) as det:
            workdir.rmdir()
            with pytest.raises(ProtocolError, match=re.escape(str(workdir))):
                det.detect(image)

    def test_failed_frame_write_names_and_removes_the_frame(self, image, tmp_path, monkeypatch):
        def full_disk(img, frame):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(external, "write_ppm", full_disk)
        with ExternalDetector(command=STUB, timeout=10, workdir=tmp_path) as det:
            with pytest.raises(ProtocolError, match=re.escape(str(tmp_path / "frame_"))):
                det.detect(image)
            assert list(tmp_path.iterdir()) == []

    def test_timeout_bounds_the_whole_response(self, image):
        # One byte every 0.1 s and never a newline: each read is quick, the
        # response never completes.
        code = (
            "import sys, time\n"
            "sys.stdin.readline()\n"
            "while True:\n"
            "    sys.stdout.write('x'); sys.stdout.flush(); time.sleep(0.1)\n"
        )
        with ExternalDetector(command=[sys.executable, "-c", code], timeout=0.5) as det:
            start = time.monotonic()
            with pytest.raises(ProtocolError, match="timed out"):
                det.detect(image)
            assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("pause", [0.5, 0.0])
    def test_late_answer_to_a_timed_out_request_is_dropped(self, image, pause):
        # Request 0 is answered after 0.3 s, every later one at once. With
        # a pause the late answer waits in the pipe; without one it comes
        # while request 1 is waiting, ahead of request 1's answer.
        code = (
            "import json, sys, time\n"
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            "    if req['id'] == 0:\n"
            "        time.sleep(0.3)\n"
            "    print(json.dumps({'id': req['id'], 'detections': [],\n"
            "                      'context': [float(req['id'])] * 512}), flush=True)\n"
        )
        with ExternalDetector(command=[sys.executable, "-c", code], timeout=0.2) as det:
            with pytest.raises(ProtocolError, match="timed out"):
                det.detect(image)
            for req_id in (1, 2):
                time.sleep(pause)
                assert det.detect(image).context[0] == float(req_id)

    def test_multiple_requests_increment_ids(self, image, tmp_path):
        fixture = make_fixture(tmp_path, {"detections": []})
        with ExternalDetector(command=STUB + ["--fixture", fixture], timeout=10) as det:
            det.detect(image)
            det.detect(image)  # id mismatch would raise


def reading_child(log) -> list[str]:
    """A detector that reads each request's image and answers with its
    length and CRC-32 as one detection, bbox [0, 0, length, 1] and score
    crc / 2**32, and appends each image path it is sent to `log`."""
    code = (
        "import json, sys, zlib\n"
        f"log = open({str(log)!r}, 'a')\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    with open(req['image'], 'rb') as fh:\n"
        "        data = fh.read()\n"
        "    log.write(req['image'] + '\\n')\n"
        "    log.flush()\n"
        "    det = {'bbox': [0, 0, len(data), 1], 'score': zlib.crc32(data) / 2**32}\n"
        "    print(json.dumps({'id': req['id'], 'detections': [det], 'context': [0.0] * 512}),\n"
        "          flush=True)\n"
    )
    return [sys.executable, "-c", code]


@pytest.mark.parametrize("fmt, writer", [("ppm", write_ppm), ("png", write_png)])
def test_detector_reads_every_frame_byte_for_byte(tmp_path, fmt, writer):
    # Large, small, large, gray then tinted: a shrinking frame that kept the
    # bigger frame's tail would read longer than it was written.
    sizes = ((96, 80), (24, 16), (96, 80))
    images = [
        generate_scene(k, SceneParams(width=w, height=h, tint_strength=tint)).image
        for k, (tint, (w, h)) in enumerate(itertools.product((0.0, 0.3), sizes))
    ]
    log, workdir = tmp_path / "paths.txt", tmp_path / "work"
    with ExternalDetector(command=reading_child(log), timeout=10, image_format=fmt,
                          workdir=workdir) as det:
        for image in images:
            buf = io.BytesIO()
            writer(image, buf)
            sent = buf.getvalue()
            (d,) = det.detect(image).detections
            assert d.box.x_max == len(sent)
            assert d.score * 2**32 == zlib.crc32(sent)
    paths = log.read_text().splitlines()
    assert len(paths) == len(images) and len(set(paths)) == 1
    assert paths[0].startswith(str(workdir / "frame_")) and paths[0].endswith("." + fmt)
    assert list(workdir.iterdir()) == []


class TestTcpTransport:
    def test_tcp_round_trip(self, image):
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            buf = b""
            while b"\n" not in buf:
                buf += conn.recv(4096)
            req = json.loads(buf.split(b"\n")[0])
            resp = {
                "id": req["id"],
                "detections": [{"bbox": [0.0, 0.0, 4.0, 4.0], "score": 0.5}],
                "context": [0.0] * 512,
            }
            conn.sendall(json.dumps(resp).encode() + b"\n")
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        with ExternalDetector(address=("127.0.0.1", port), timeout=10) as det:
            out = det.detect(image)
        thread.join(timeout=5)
        server.close()
        assert len(out.detections) == 1

    def test_connect_refused(self):
        with pytest.raises(ProtocolError, match="connect"):
            ExternalDetector(address=("127.0.0.1", 1), timeout=0.5)

    def test_connect_refused_leaves_no_workdir(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(ProtocolError):
            ExternalDetector(address=("127.0.0.1", 1), timeout=0.5)
        assert list(tmp_path.iterdir()) == []


def one_reply_child(reply: str) -> list[str]:
    """A child that reads one request `req`, writes the Python expression
    `reply` to stdout as is, and exits."""
    code = (
        "import json, sys\n"
        "req = json.loads(sys.stdin.readline())\n"
        f"sys.stdout.write({reply})\n"
    )
    return [sys.executable, "-c", code]


GOOD_REPLY = "json.dumps({'id': req['id'], 'detections': [], 'context': [0.0] * 512}) + '\\n'"


class TestBridgeFailures:
    """Every way the detector end can fail surfaces as a ProtocolError."""

    def test_missing_command(self):
        with pytest.raises(ProtocolError, match="connect"):
            ExternalDetector(command=["nosuchcmd-xyz"], timeout=5)

    def test_command_without_execute_bit(self, tmp_path):
        script = tmp_path / "detector.sh"
        script.write_text("#!/bin/sh\n")
        script.chmod(0o644)
        with pytest.raises(ProtocolError, match="connect"):
            ExternalDetector(command=[str(script)], timeout=5)

    def test_child_answers_once_then_exits(self, image):
        with ExternalDetector(command=one_reply_child(GOOD_REPLY), timeout=5) as det:
            assert det.detect(image).context.shape == (512,)
            with pytest.raises(ProtocolError):
                det.detect(image)

    def test_partial_last_line(self, image):
        child = one_reply_child("'{\"id\": 0, \"detections\": ['")
        with ExternalDetector(command=child, timeout=5) as det:
            with pytest.raises(ProtocolError, match="closed"):
                det.detect(image)

    def test_wrong_response_id(self, image):
        child = one_reply_child(GOOD_REPLY.replace("req['id']", "req['id'] + 1"))
        with ExternalDetector(command=child, timeout=5) as det:
            with pytest.raises(ProtocolError, match="does not match"):
                det.detect(image)

    @pytest.mark.parametrize("reply_id", ["-1", "0.0", "'0'", "None"])
    def test_only_an_earlier_integer_id_is_late(self, image, reply_id):
        # Request 0 is answered; request 1's answer carries `reply_id`,
        # which names no earlier request, so it is not dropped as late.
        code = (
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            f"    rid = req['id'] if req['id'] == 0 else {reply_id}\n"
            "    print(json.dumps({'id': rid, 'detections': [], 'context': [0.0] * 512}),\n"
            "          flush=True)\n"
        )
        with ExternalDetector(command=[sys.executable, "-c", code], timeout=5) as det:
            det.detect(image)
            with pytest.raises(ProtocolError, match="does not match"):
                det.detect(image)

    def test_tcp_peer_closes_mid_line(self, image):
        server = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = server.accept()
            with conn:
                conn.recv(4096)
                conn.sendall(b'{"id": 0, "detec')

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        with ExternalDetector(address=server.getsockname(), timeout=5) as det:
            with pytest.raises(ProtocolError, match="closed"):
                det.detect(image)
        thread.join(timeout=5)
        server.close()


def test_constructor_validation():
    with pytest.raises(ValueError):
        ExternalDetector()
    with pytest.raises(ValueError):
        ExternalDetector(command=["x"], address=("h", 1))


# JSON values as json.loads returns them, NaN and the infinities included.
_NUMBERS = st.integers(min_value=-(10**400), max_value=10**400) | st.floats()
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# Strings and bools that int() or float() would read as numbers.
_LOOKALIKES = st.booleans() | st.from_regex(r"-?[0-9]{1,4}(\.[0-9]{1,3})?", fullmatch=True)
# Mostly well-formed detections and contexts, each with one field (or the
# last context value) replaced by an arbitrary JSON value some of the time.
_ENTRIES = st.fixed_dictionaries(
    {
        "bbox": st.lists(_NUMBERS | _LOOKALIKES, min_size=4, max_size=4) | _LOOKALIKES | _JSON,
        "score": _NUMBERS | _LOOKALIKES | _JSON,
    },
    optional={"category": _NUMBERS | _LOOKALIKES | _JSON},
)
_CONTEXTS = _JSON | st.builds(
    lambda n, fill, last: [fill] * (n - 1) + [last],
    st.sampled_from([511, 512, 1024]),
    st.floats(-1e6, 1e6) | _LOOKALIKES,
    _NUMBERS | _LOOKALIKES | _JSON,
)
_PAYLOADS = _JSON | st.fixed_dictionaries(
    {
        "id": st.just(1) | _JSON,
        "detections": st.lists(_ENTRIES | _JSON, max_size=3) | _JSON,
        "context": _CONTEXTS,
    }
)


# At least 300 examples; the fuzz profile runs more.
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(payload=_PAYLOADS)
def test_parse_fuzz(payload):
    """Whatever JSON a detector sends, parsing either raises ProtocolError
    or returns finite boxes and a finite 512-value context, and no string or
    bool is ever read as a number."""
    try:
        out = ExternalDetector._parse(payload, 1)
    except ProtocolError:
        return
    for d in out.detections:
        b = d.box
        assert np.all(np.isfinite([b.x_min, b.y_min, b.x_max, b.y_max]))
    assert out.context.shape == (512,) and np.all(np.isfinite(out.context))
    read = list(payload["context"])
    for entry in payload["detections"]:
        read += [*entry["bbox"], entry["score"], entry.get("category", 0)]
    assert not any(isinstance(v, (str, bool)) for v in read)


@pytest.mark.parametrize(
    "field, value",
    [
        ("context", "abc"),
        ("context", [1.0] * 511 + [[1.0, 2.0]]),
        ("context", {"a": 1.0}),
        ("context", [1.0] * 511 + ["x"]),
        ("bbox", [0.0, 0.0, float("nan"), 5.0]),
        ("bbox", [float("-inf"), 0.0, float("inf"), 5.0]),
        ("category", float("inf")),
        ("bbox", "0159"),
        ("bbox", [True, 0.0, 5.0, 5.0]),
        ("score", "0.5"),
        ("score", True),
        ("category", "7"),
        ("category", True),
        ("context", ["1"] * 512),
        ("context", [True] * 512),
        ("bbox", [-1e308, -1e308, 1e308, 1e308]),
        ("bbox", [0.0, 0.0, 1e200, 1e200]),
    ],
    ids=[
        "string", "ragged", "dict", "non-numeric", "nan-bbox", "inf-bbox", "inf-category",
        "string-bbox", "bool-in-bbox", "string-score", "bool-score", "string-category",
        "bool-category", "string-context", "bool-context", "overflow-extent", "overflow-area",
    ],
)
def test_parse_rejects(field, value):
    entry = {"bbox": [0.0, 0.0, 5.0, 5.0], "score": 0.5}
    payload = {"id": 1, "detections": [entry], "context": [1.0] * 512}
    if field == "context":
        payload["context"] = value
    else:
        entry[field] = value
    with pytest.raises(ProtocolError):
        ExternalDetector._parse(payload, 1)

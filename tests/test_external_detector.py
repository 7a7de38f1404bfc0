import json
import socket
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlaod.environment import ExternalDetector, SceneParams, generate_scene
from rlaod.errors import ProtocolError

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

    def test_multiple_requests_increment_ids(self, image, tmp_path):
        fixture = make_fixture(tmp_path, {"detections": []})
        with ExternalDetector(command=STUB + ["--fixture", fixture], timeout=10) as det:
            det.detect(image)
            det.detect(image)  # id mismatch would raise


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
# Mostly well-formed detections and contexts, each with one field (or the
# last context value) replaced by an arbitrary JSON value some of the time.
_ENTRIES = st.fixed_dictionaries(
    {"bbox": st.lists(_NUMBERS, min_size=4, max_size=4) | _JSON, "score": _NUMBERS | _JSON},
    optional={"category": _NUMBERS | _JSON},
)
_CONTEXTS = _JSON | st.builds(
    lambda n, fill, last: [fill] * (n - 1) + [last],
    st.sampled_from([511, 512, 1024]),
    st.floats(-1e6, 1e6),
    _NUMBERS | _JSON,
)
_PAYLOADS = _JSON | st.fixed_dictionaries(
    {
        "id": st.just(1) | _JSON,
        "detections": st.lists(_ENTRIES | _JSON, max_size=3) | _JSON,
        "context": _CONTEXTS,
    }
)


@settings(max_examples=300, deadline=None)
@given(payload=_PAYLOADS)
def test_parse_fuzz(payload):
    """Whatever JSON a detector sends, parsing either raises ProtocolError
    or returns finite boxes and a finite 512-value context."""
    try:
        out = ExternalDetector._parse(payload, 1)
    except ProtocolError:
        return
    for d in out.detections:
        b = d.box
        assert np.all(np.isfinite([b.x_min, b.y_min, b.x_max, b.y_max]))
    assert out.context.shape == (512,) and np.all(np.isfinite(out.context))


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
    ],
    ids=["string", "ragged", "dict", "non-numeric", "nan-bbox", "inf-bbox", "inf-category"],
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

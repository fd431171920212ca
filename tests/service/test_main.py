"""``python -m repro.service``: a bad flag value is one ``error:`` line and exit 2."""

from __future__ import annotations

import socket

import pytest

from repro.service.__main__ import main


def assert_one_error_line(capsys, code: int, fragment: str) -> None:
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert fragment in lines[0]


@pytest.mark.parametrize(
    "argv,fragment",
    (
        (["--listen", "no-port"], "HOST:PORT"),
        (["--listen", "127.0.0.1:http"], "not an integer"),
        (["--listen", "127.0.0.1:70000"], "[0, 65535]"),
    ),
)
def test_bad_listen(capsys, argv, fragment):
    assert_one_error_line(capsys, main(argv), fragment)


@pytest.mark.parametrize("window", ("bogus", "tumbling:0", "sliding:8x0"))
def test_bad_window(capsys, window):
    assert_one_error_line(capsys, main(["--window", window]), "window")


@pytest.mark.parametrize("size", ("0", "-3"))
def test_bad_queue_size(capsys, size):
    assert_one_error_line(capsys, main(["--queue-size", size]), "queue_size")


@pytest.mark.parametrize(
    "spec,fragment",
    (
        ("nope", "NAME:PROTOCOL:K:EPSILON"),
        ("age:NOPE:8:1.0", "unknown protocol"),
        ("age:GRR:1:1.0", "k"),
        ("age:GRR:8:-1", "epsilon"),
    ),
)
def test_bad_attribute(capsys, spec, fragment):
    assert_one_error_line(capsys, main(["--attribute", spec]), fragment)


def test_port_in_use(capsys):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        code = main(["--listen", f"127.0.0.1:{port}", "--attribute", "a:GRR:4:1.0"])
    assert_one_error_line(capsys, code, "in use")

"""Fuzz of ``cli.main`` on mutated copies of the and2 benchmark: whatever
the input files hold, a run ends in exit 0, 1 or 2, with at most a
one-line message on stderr and never a traceback."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from faultsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {
    "netlist": (ROOT / "benchmarks" / "and2.nl").read_bytes(),
    "stimulus": (ROOT / "benchmarks" / "and2.stim").read_bytes()
    + b"1 0 1\n2 1 0\n",
    "faults": b"fid,location_kind,location_name,bit,kind\n"
    b"0,wire,y,0,sa0\n1,port,a,0,sa1\n2,port,o,0,sa0\n"
    b"3,wire,b,0,transient,1,2\n",
}

NUMBERS = [b"-1", b"-0", b"0", b"2", b"64", b"65", b"ff", b"-ff", b"1" * 30]

# A token is a run of anything but whitespace and commas; the separators
# are kept so that a token edit leaves the rest of the file intact.
_SPLIT = re.compile(rb"([\s,]+)")


def _flip(data, draw):
    if not data:
        return data
    i = draw(st.integers(0, len(data) - 1))
    return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:]


def _truncate(data, draw):
    return data[:draw(st.integers(0, len(data)))]


def _token_edit(data, draw):
    parts = _SPLIT.split(data)
    tokens = [i for i in range(0, len(parts), 2) if parts[i]]
    if not tokens:
        return data
    i = draw(st.sampled_from(tokens))
    how = draw(st.sampled_from(["drop", "swap", "number"]))
    if how == "drop":
        parts[i] = b""
    elif how == "swap":
        j = draw(st.sampled_from(tokens))
        parts[i], parts[j] = parts[j], parts[i]
    else:
        parts[i] = draw(st.sampled_from(NUMBERS))
    return b"".join(parts)


MUTATIONS = [_flip, _truncate, _token_edit]


@settings(max_examples=250, deadline=None)
@given(data=st.data(), mode=st.sampled_from(["serial", "full"]),
       drop=st.booleans())
def test_mutated_inputs_end_cleanly(data, mode, drop):
    files = dict(SOURCES)
    for _ in range(data.draw(st.integers(1, 3))):
        which = data.draw(st.sampled_from(sorted(files)))
        mutate = data.draw(st.sampled_from(MUTATIONS))
        files[which] = mutate(files[which], data.draw)

    with tempfile.TemporaryDirectory() as tmp:
        args = ["run", "--mode", mode, "--workers", "2", "--oracle-check",
                "--steady-check"]
        if drop:
            args.append("--drop-on-detect")
        for name, content in files.items():
            path = Path(tmp) / name
            path.write_bytes(content)
            args += [f"--{name}", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)

    message = err.getvalue()
    assert code in (0, 1, 2), (code, message)
    assert "Traceback" not in message
    if code == 0:
        assert message == ""
        assert "oracle-check: ok" in out.getvalue()
    else:
        assert message.count("\n") == 1 and message.endswith("\n"), message

"""Byte-identity gate for the command line.

tests/golden/manifest.json lists command lines in the order they run. Each
runs in-process through cli.main, all in one scratch directory, so a later
entry may read what an earlier one wrote. For each it records the exit code
and the sha256 of stdout, stderr and every file the entry names. argv and the
captured streams spell paths as {data} (tests/data), {inputs}
(tests/golden/inputs) and {tmp} (the scratch directory). The recorded bytes
sit next to the manifest, in expected/, so a mismatch can name the first line
that differs.

To record an entry, add it to the manifest with its argv and files and no
sha256, then run

    PYTHONPATH=src python3 tests/test_golden.py

which fills in only the entries that have no sha256 yet. A recorded entry is
never rewritten: delete its sha256 to record it again.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from plainterm.cli import main

TESTS = pathlib.Path(__file__).parent
GOLDEN = TESTS / "golden"
MANIFEST = GOLDEN / "manifest.json"
PLACES = {"{data}": TESTS / "data", "{inputs}": GOLDEN / "inputs"}


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def run_all(manifest: dict, tmp: pathlib.Path) -> dict[str, tuple[int, dict[str, str]]]:
    """Run every entry in order; name -> (exit code, {stream: text})."""
    places = {**PLACES, "{tmp}": tmp}
    saved = os.environ.get("COLUMNS")
    # help text wraps to the terminal width
    os.environ["COLUMNS"] = "80"
    results = {}
    try:
        for name, entry in manifest.items():
            argv = list(entry["argv"])
            for mark, path in places.items():
                argv = [arg.replace(mark, str(path)) for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # --help and argparse errors
                    code = exc.code
            streams = {"stdout": out.getvalue(), "stderr": err.getvalue()}
            for file in entry.get("files", []):
                streams[file] = (tmp / file).read_bytes().decode("utf-8")
            for mark, path in places.items():
                streams = {key: text.replace(str(path), mark) for key, text in streams.items()}
            results[name] = code, streams
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return results


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_path(name: str, stream: str) -> pathlib.Path:
    return GOLDEN / "expected" / name.replace("/", "__") / stream


def first_difference(want: str, got: str) -> str:
    want_lines, got_lines = want.splitlines(keepends=True), got.splitlines(keepends=True)
    for i, (a, b) in enumerate(zip(want_lines, got_lines), start=1):
        if a != b:
            return f"line {i}: expected {a!r}, got {b!r}"
    i = min(len(want_lines), len(got_lines)) + 1
    return f"line {i}: expected {want_lines[i - 1:i] or 'end of output'}, got {got_lines[i - 1:i] or 'end of output'}"


MANIFEST_ENTRIES = load_manifest()


@pytest.fixture(scope="module")
def runs():
    with tempfile.TemporaryDirectory() as tmp:
        yield run_all(MANIFEST_ENTRIES, pathlib.Path(tmp))


@pytest.mark.parametrize("name", list(MANIFEST_ENTRIES))
def test_command_output_is_byte_identical(runs, name):
    entry = MANIFEST_ENTRIES[name]
    assert "sha256" in entry, f"{name} is not recorded"
    code, streams = runs[name]
    assert code == entry["exit"], f"{name}: exit {code}, recorded {entry['exit']}"
    assert sorted(streams) == sorted(entry["sha256"])
    for stream, digest in entry["sha256"].items():
        if sha256(streams[stream]) != digest:
            want = expected_path(name, stream).read_bytes().decode("utf-8")
            pytest.fail(f"{name} {stream} differs at {first_difference(want, streams[stream])}")


def record() -> None:
    manifest = load_manifest()
    with tempfile.TemporaryDirectory() as tmp:
        results = run_all(manifest, pathlib.Path(tmp))
    for name, entry in manifest.items():
        if "sha256" in entry:
            continue
        code, streams = results[name]
        entry["exit"] = code
        entry["sha256"] = {stream: sha256(text) for stream, text in streams.items()}
        for stream, text in streams.items():
            path = expected_path(name, stream)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8", newline="")
        print(f"recorded {name}: exit {code}")
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()

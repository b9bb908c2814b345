import os
import threading

import pytest

from lanenav import fileio
from lanenav.fileio import atomic_write_bytes, atomic_write_text


def test_round_trip(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "hello\n")
    atomic_write_text(path, "again\n")
    assert path.read_text() == "again\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_concurrent_writers_leave_one_intact_payload(tmp_path):
    path = tmp_path / "shared.bin"
    payloads = [bytes([i]) * (256 * 1024 + i) for i in range(8)]
    start = threading.Barrier(len(payloads))
    errors = []

    def writer(data: bytes) -> None:
        try:
            start.wait()
            for _ in range(20):
                atomic_write_bytes(path, data)
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert path.read_bytes() in payloads
    assert os.listdir(tmp_path) == ["shared.bin"]


def test_failed_rename_leaves_no_temp(tmp_path, monkeypatch):
    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(fileio.os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated"):
        atomic_write_bytes(tmp_path / "out.bin", b"payload")
    assert os.listdir(tmp_path) == []


def test_failed_write_leaves_no_temp_and_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    atomic_write_bytes(path, b"old")
    real_write = os.write
    calls = []

    def partial_write(fd, data):
        calls.append(bytes(data))
        if len(calls) > 1:
            raise OSError("simulated disk full")
        return real_write(fd, data[:2])

    monkeypatch.setattr(fileio.os, "write", partial_write)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_bytes(path, b"new payload")
    assert calls == [b"new payload", b"w payload"]
    assert os.listdir(tmp_path) == ["out.bin"]
    assert path.read_bytes() == b"old"


def test_short_writes_are_completed(tmp_path, monkeypatch):
    real_write = os.write
    sizes = []

    def one_byte_write(fd, data):
        sizes.append(len(data))
        return real_write(fd, data[:1])

    monkeypatch.setattr(fileio.os, "write", one_byte_write)
    payload = bytes(range(256)) * 3
    atomic_write_bytes(tmp_path / "out.bin", payload)
    assert sizes == list(range(len(payload), 0, -1))
    assert (tmp_path / "out.bin").read_bytes() == payload
    assert os.listdir(tmp_path) == ["out.bin"]


def test_failed_open_leaves_no_temp_and_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    atomic_write_bytes(path, b"old")

    def failing_open(*args, **kwargs):
        raise OSError("simulated open failure")

    monkeypatch.setattr(fileio.os, "open", failing_open)
    with pytest.raises(OSError, match="open failure"):
        atomic_write_bytes(path, b"new payload")
    assert os.listdir(tmp_path) == ["out.bin"]
    assert path.read_bytes() == b"old"


def test_temp_file_name_flags_and_mode(tmp_path, monkeypatch):
    """The temp file is ``<name>.<pid>.<thread id>.tmp`` beside the path, opened for writing only, created,
    truncated and closed on exec, with mode 0o666 less the umask, as ``open`` creates files."""
    real_open, opened = os.open, []

    def recording_open(name, flags, mode=0o777):
        opened.append((name, flags, mode))
        return real_open(name, flags, mode)

    monkeypatch.setattr(fileio.os, "open", recording_open)
    path = tmp_path / "out.bin"
    atomic_write_bytes(path, b"payload")
    assert opened == [(f"{path}.{os.getpid()}.{threading.get_ident()}.tmp",
                       os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC, 0o666)]
    other = tmp_path / "other.bin"
    other.write_bytes(b"")
    assert os.stat(path).st_mode == os.stat(other).st_mode

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
    real_write_bytes = fileio.Path.write_bytes

    def partial_write(self, data):
        real_write_bytes(self, data[:2])
        raise OSError("simulated disk full")

    monkeypatch.setattr(fileio.Path, "write_bytes", partial_write)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_bytes(path, b"new payload")
    assert os.listdir(tmp_path) == ["out.bin"]
    assert path.read_bytes() == b"old"

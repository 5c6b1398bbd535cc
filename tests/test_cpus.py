import os

from rdgauge.cpus import available_cpus


def test_counts_the_affinity_mask_not_the_host(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert available_cpus() == 3


def test_falls_back_to_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert available_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert available_cpus() == 1


def test_falls_back_when_affinity_fails(monkeypatch):
    def denied(pid):
        raise OSError("not permitted")

    monkeypatch.setattr(os, "sched_getaffinity", denied)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert available_cpus() == 4

import os

import pytest


@pytest.fixture
def host_with_8_gib(monkeypatch):
    """The memory guard sees 8 GiB of physical memory, whatever the host has."""
    sysconf = os.sysconf
    pages = 8 * 2**30 // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(
        os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name)
    )

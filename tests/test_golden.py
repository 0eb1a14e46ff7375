"""Every preset writes the golden files, whether its pieces and noise run in children or not."""

from functools import partial

import golden
from unravelings import procs


def test_presets_write_the_golden_files_with_forks_on_and_off(tmp_path, monkeypatch):
    want = golden.load()

    def digests(forks):
        monkeypatch.setattr(procs, "_FORK_HELPER", forks)   # in a forked piece, its own copy
        return forks, golden.preset_digests(tmp_path / f"forks_{'on' if forks else 'off'}")

    # the pass with forks off runs in a forked piece, beside the pass with forks on
    passes = [partial(digests, True)] if procs._FORK_HELPER else []
    for forks, got in procs._forked_map(passes + [partial(digests, False)]):
        assert sorted(got) == sorted(want["presets"])
        differ = sorted(name for name in got if got[name] != want["presets"][name])
        assert differ == [], golden.mismatch(f"with forks {'on' if forks else 'off'}, {differ}",
                                             want)

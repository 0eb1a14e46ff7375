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


def test_differences_list_each_moved_number_and_changed_digest():
    want = {"criteria": {"1": {"max_dev": "{'xi=1': 0.25, 'xi=-i': 0.5}", "n": "10"},
                         "2": {"ok": "True", "zero": "0.0"}},
            "presets": {"a.csv": "aa", "b.json": "bb"}}
    got = {"criteria": {"1": {"max_dev": "{'xi=1': 0.25, 'xi=-i': 0.5000000001}", "n": "10"},
                        "2": {"ok": "True", "zero": "-2e-17"}},
           "presets": {"a.csv": "aa", "b.json": "cc"}}
    lines, summary = golden.differences(want, got)
    assert lines == [
        "criterion 1 max_dev: {'xi=1': 0.25, 'xi=-i': 0.5} -> "
        "{'xi=1': 0.25, 'xi=-i': 0.5000000001}",
        "    0.5 -> 0.5000000001: relative change 2e-10",
        "criterion 2 zero: 0.0 -> -2e-17",
        "    0.0 -> -2e-17: relative change 2e-17",
        "preset file b.json: digest changed"]
    assert summary == ("2 criterion values differ (largest relative change 2e-10); "
                       "1 of 2 preset files differ")
    assert golden.differences(want, want) == (
        [], "0 criterion values differ (largest relative change 0); 0 of 2 preset files differ")
    # a value whose numbers do not pair up is listed without relative changes
    got["criteria"]["1"]["n"] = "[10, 11]"
    assert "    the numbers do not pair up" in golden.differences(want, got)[0]

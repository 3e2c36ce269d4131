import json

import compare

BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_clear_gain_is_improved():
    new = [v * 0.8 for v in BASE]
    assert compare.verdict(BASE, new, "lower", 0.1) == "improved"
    assert compare.verdict(new, BASE, "higher", 0.1) == "improved"


def test_gain_needs_ten_pairs():
    new = [v * 0.8 for v in BASE]
    assert compare.verdict(BASE[:9], new[:9], "lower", 0.3) == "unchanged"


def test_gain_needs_nine_tenths_of_pairs():
    new = [v * 0.8 for v in BASE]
    new[0] = new[1] = 20.0              # two losses of ten
    assert compare.verdict(BASE, new, "lower", 0.5) != "improved"


def test_gain_inside_the_old_spread_is_not_claimed():
    old = [10.0, 12.0, 8.0, 11.0, 9.0, 12.5, 7.5, 10.5, 9.5, 10.0]
    new = [v - 0.3 for v in old]        # wins every pair, tiny shift
    assert compare.verdict(old, new, "lower", 0.5) == "unchanged"


def test_worse_beyond_the_bound():
    new = [v * 1.2 for v in BASE]
    assert compare.verdict(BASE, new, "lower", 0.1) == "worse"
    assert compare.verdict(BASE, new, "lower", 0.25) == "unchanged"


def test_wide_spread_is_unresolved():
    old = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 10.0, 9.0, 11.0, 10.0]
    new = [v * 1.05 for v in old]
    assert compare.verdict(old, new, "lower", 0.1) == "unresolved"


def test_metric_without_a_bound():
    assert compare.verdict([3] * 10, [3] * 10, "higher", None) == "unchanged"
    assert compare.verdict(BASE, [v * 1.3 for v in BASE], "lower",
                           None) == "worse"


def test_compare_files(tmp_path):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                        "bound": 0.1}],
        "per_layer": [{"name": "cache.get.hits", "unit": "count",
                       "better": "higher"}]}))

    def write(path, values):
        with open(path, "w") as fh:
            for v in values:
                fh.write(json.dumps({"workload": "w", "trace": 0, "metrics": {
                    "wall_s": {"value": v, "unit": "s"}}}) + "\n")

    write(tmp_path / "old.jsonl", BASE)
    write(tmp_path / "new.jsonl", [v * 0.7 for v in BASE])
    rows = compare.compare(str(tmp_path / "old.jsonl"),
                           str(tmp_path / "new.jsonl"), str(bench))
    assert len(rows) == 2
    assert rows[1].startswith("w ") and rows[1].endswith("improved")
    assert "10/10" in rows[1]

"""ASCII chart tests.

The figure charts and the ``export`` document are pinned byte for byte by
``tests/test_all_output_golden.py``, from results it computes once.
"""
from repro.experiments.charts import ascii_bars


class TestAsciiBars:
    def test_basic_shape(self):
        text = ascii_bars(
            "T", [("a", 10.0, 5.0), ("b", 100.0, None)], log=False
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "#" in lines[3]
        assert "-" in lines[4]
        assert "10.0" in lines[3]

    def test_longest_bar_fills_width(self):
        text = ascii_bars("T", [("a", 10.0, None), ("b", 100.0, None)],
                          width=30, log=False)
        bar_a = text.splitlines()[3].count("#")
        bar_b = text.splitlines()[4].count("#")
        assert bar_b == 30
        assert 0 < bar_a < bar_b

    def test_log_scale_compresses_outliers(self):
        linear = ascii_bars("T", [("a", 10.0, None), ("b", 1000.0, None)],
                            width=40, log=False)
        logged = ascii_bars("T", [("a", 10.0, None), ("b", 1000.0, None)],
                            width=40, log=True)
        ratio_linear = (
            linear.splitlines()[4].count("#") / linear.splitlines()[3].count("#")
        )
        ratio_log = (
            logged.splitlines()[4].count("#") / logged.splitlines()[3].count("#")
        )
        assert ratio_log < ratio_linear

    def test_zero_value(self):
        text = ascii_bars("T", [("a", 0.0, 0.0)])
        assert "0.0" in text

    def test_empty(self):
        assert ascii_bars("T", []) == "T"

"""The float encoder behind gen-channel's JSON: its text is json.dumps's,
byte for byte, on every float64, through the fast path or the fallback."""

import json
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nslocc import cli


def json_rows(block: np.ndarray) -> str:
    return ", ".join(json.dumps(row.tolist()) for row in block)


def edge(base: float, k: int) -> float:
    # 10^-k as parsed, not as 10.0 ** -k computes it
    return float(f"1e-{k}") if base == 10 else 2.0 ** -k


@st.composite
def floats(draw):
    value = draw(st.one_of(
        st.floats(),                          # NaN, ±inf, ±0.0, subnormals, |x| >= 1
        st.floats(1e-9, 10.0),                # the fast path's range and past its ends
        # dyadic k·2^-j below 1, where two candidates can tie exactly
        st.integers(17, 24).flatmap(lambda j: st.integers(1, 2 ** j - 1).map(lambda k: k * 2.0 ** -j)),
        st.builds(round, st.floats(0.0, 1.0), st.integers(1, 15)),   # short decimals
        st.builds(lambda base, k, up: float(np.nextafter(edge(base, k), 1.0 if up else 0.0)),
                  st.sampled_from([10, 2]), st.integers(1, 9), st.booleans()),
    ))
    return -value if draw(st.booleans()) else value


@settings(max_examples=80, deadline=None, derandomize=True)
@given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 10)), elements=floats()))
def test_float_rows_are_json_dumps(block):
    assert cli._float_rows(block) == json_rows(block)


def test_float_rows_take_the_fallback_unless_repr_is_short(monkeypatch):
    # under the legacy repr every element goes through json.dumps: the fast
    # path is never asked, and the text still equals json.dumps's
    block = np.random.default_rng(0).standard_normal((4, 32)) * 1e-3

    def refuse(x):
        raise AssertionError("the fast path ran")
    monkeypatch.setattr(sys, "float_repr_style", "legacy")
    monkeypatch.setattr(cli, "_shortest", refuse)
    assert cli._float_rows(block) == json_rows(block)


def test_fast_path_takes_omega_and_not_its_domain_edges():
    # ω-like values all take the fast path; 2^-k, 10^-k and short decimals,
    # whose digits number fewer than 13, and 1.0 do not
    x = np.random.default_rng(1).standard_normal(512) * 1e-3
    assert cli._shortest(x)[0].size == x.size
    ends = np.array([0.5, 0.25, 1e-3, 1e-7, 0.125, 0.3, 1.0, 9.5e-8])
    assert cli._shortest(ends)[0].size == 0

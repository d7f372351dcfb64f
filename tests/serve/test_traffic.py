"""The production traffic model: diurnal, flash crowds, heavy tails."""

import numpy as np
import pytest

from repro.serve.workload import TrafficModel, TrafficSpec, trace_digest


def test_trace_deterministic_for_seed_and_spec():
    spec = TrafficSpec(seed=11, n_users=200, ticks=300)
    a = TrafficModel(spec).trace()
    b = TrafficModel(spec).trace()
    np.testing.assert_array_equal(a, b)
    assert trace_digest(a) == trace_digest(b)


def test_trace_digest_sensitive_to_seed():
    base = TrafficSpec(seed=1, n_users=200, ticks=300)
    other = TrafficSpec(seed=2, n_users=200, ticks=300)
    assert trace_digest(TrafficModel(base).trace()) != trace_digest(
        TrafficModel(other).trace()
    )


def test_diurnal_day_beats_night():
    spec = TrafficSpec(
        seed=0, n_users=100, ticks=200, diurnal_period=200,
        day_night_ratio=4.0, flash_crowds=0,
    )
    rates = TrafficModel(spec).rates()
    # Tick 0 is midnight (trough), half a period later is the peak.
    assert rates[100] == pytest.approx(spec.peak_rate)
    assert rates[0] == pytest.approx(spec.peak_rate / spec.day_night_ratio)
    assert rates[100] / rates[0] == pytest.approx(spec.day_night_ratio)
    # Measured arrivals follow: the day half outdraws the night half.
    trace = TrafficModel(spec).trace()
    ticks = trace[:, 0]
    night = np.sum((ticks < 50) | (ticks >= 150))
    day = np.sum((ticks >= 50) & (ticks < 150))
    assert day > night


def test_flash_crowd_spikes_rate_inside_window():
    spec = TrafficSpec(
        seed=5, n_users=100, ticks=300, flash_crowds=1,
        flash_multiplier=6.0, flash_duration=10,
    )
    model = TrafficModel(spec)
    quiet = TrafficModel(
        TrafficSpec(seed=5, n_users=100, ticks=300, flash_crowds=0)
    )
    start = int(model.flash_starts[0])
    rates = model.rates()
    base = quiet.rates()
    inside = slice(start, start + spec.flash_duration)
    np.testing.assert_allclose(rates[inside], base[inside] * 6.0)
    # Outside the window the diurnal curve is untouched.
    mask = np.ones(spec.ticks, dtype=bool)
    mask[inside] = False
    np.testing.assert_allclose(rates[mask], base[mask])


def test_peak_tick_lands_in_flash_window_or_diurnal_peak():
    spec = TrafficSpec(seed=3, n_users=100, ticks=200, diurnal_period=200)
    model = TrafficModel(spec)
    peak = model.peak_tick()
    assert 0 <= peak < spec.ticks
    assert model.rates()[peak] == model.rates().max()


def test_pareto_head_dominates():
    spec = TrafficSpec(seed=9, n_users=500, ticks=400, pareto_alpha=1.2)
    model = TrafficModel(spec)
    weights = np.sort(model.user_weights)[::-1]
    # Heavy tail: the top 10% of users carry well over their fair share.
    assert weights[:50].sum() > 0.3
    trace = model.trace()
    counts = np.bincount(trace[:, 1], minlength=spec.n_users)
    top = np.sort(counts)[::-1]
    assert top[:50].sum() > 0.25 * counts.sum()


def test_spec_validation():
    with pytest.raises(ValueError):
        TrafficSpec(day_night_ratio=0.5)
    with pytest.raises(ValueError):
        TrafficSpec(diurnal_period=1)
    with pytest.raises(ValueError):
        TrafficSpec(flash_multiplier=0.5)
    with pytest.raises(ValueError):
        TrafficSpec(pareto_alpha=0.0)
    with pytest.raises(ValueError):
        TrafficSpec(flash_duration=0)


@pytest.mark.parametrize(
    "field,value",
    [("peak_rate", -1.0), ("peak_rate", float("nan")), ("ticks", -5), ("n_users", 0)],
)
def test_out_of_range_field_named(field, value):
    with pytest.raises(ValueError, match=field):
        TrafficSpec(**{field: value})


def test_spec_to_dict_round_trip():
    spec = TrafficSpec(seed=4, peak_rate=12.0)
    assert TrafficSpec(**spec.to_dict()) == spec

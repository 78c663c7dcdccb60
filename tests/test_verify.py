import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import hkmod
from hkmod import fujiki, verify, walls
from hkmod.errors import InputError
from hkmod.verify import SUITES, verify_all


def test_all_suites_pass():
    summary = verify_all()
    assert summary.ok
    assert summary.failures() == []
    assert [s.theorem for s in summary.suites] == sorted(SUITES)
    assert len(summary.suites) == 8
    for suite in summary.suites:
        assert suite.checks, suite.theorem


def test_filtered_run():
    summary = verify_all("walls")
    assert [s.theorem for s in summary.suites] == ["walls"]
    assert summary.ok
    data = summary.to_json_dict()
    assert data["ok"] is True


def test_unknown_filter():
    with pytest.raises(InputError):
        verify_all("nomatch")


def wide_box_walls(e, d, a):
    # the fixed +-10*(|e|+2d)*floor(a) y-box the self-check scanned before
    out = []
    x = 1
    while x <= a:
        bound = 10 * (abs(e) + 2 * d) * int(a) + 10
        for y in range(-bound, bound + 1):
            q = x * (e * x + 2 * d * y)
            if -a <= q < 0 and gcd(x, abs(y)) == 1:
                out.append((x, y))
        x += 1
    return sorted(out)


def test_narrowed_wall_box_matches_wide_scan():
    cases = [(e, d, a) for e in (2, 4) for d in (1, 3)
             for a in (Fraction(6), Fraction(12), Fraction(7, 2))]
    cases += [(e, d, a) for e in range(-6, 7) for d in (1, 2)
              for a in (Fraction(5), Fraction(9, 2), Fraction(11, 3))]
    for e, d, a in cases:
        assert verify._brute_walls(e, d, a) == wide_box_walls(e, d, a), (e, d, a)


def test_narrowed_potenza_range_matches_full_range():
    rng = random.Random(7)
    for _ in range(300):
        n, d1 = rng.randint(1, 3), rng.randint(1, 4)
        d2, r, a = d1 * rng.randint(1, 4), rng.randint(1, 30), rng.randint(1, 12)
        full = [
            r0 for r0 in range(1, r * d1 * d2 + 2)
            if r0**n == r * gcd(r0, d1) * gcd(r0, d2)
            and r0 ** (n - 1) % (gcd(r0, d1) * gcd(r0, d2)) == 0
            and gcd(r, a) == r0 ** (n - 1) // (gcd(r0, d1) * gcd(r0, d2))
        ]
        assert verify._brute_potenza(n, d1, d2, r, a) == full, (n, d1, d2, r, a)


def test_box_scan_catches_a_dropped_wall(monkeypatch):
    enumerate_all = walls.enumerate_wall_classes
    monkeypatch.setattr(walls, "enumerate_wall_classes", lambda ns, a: enumerate_all(ns, a)[:-1])
    assert "walls.enumeration_matches_box_scan" in verify_all("walls").failures()


def test_fiber_check_catches_a_wrong_top_intersection(monkeypatch):
    top = fujiki.top_intersection
    monkeypatch.setattr(fujiki, "top_intersection", lambda setup, classes: top(setup, classes) + 1)
    assert "fujiki.fiber_integral_closed_form" in verify_all("fujiki").failures()


def test_fiber_check_catches_a_wrong_top_intersection_without_asserts():
    # the same mutation under python -O, where every assert is stripped
    src = str(Path(hkmod.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from hkmod import fujiki\n"
        "from hkmod.verify import verify_all\n"
        "top = fujiki.top_intersection\n"
        "fujiki.top_intersection = lambda setup, classes: top(setup, classes) + 1\n"
        "print(sys.flags.optimize, *verify_all('fujiki').failures())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    optimize, *failures = proc.stdout.split()
    assert optimize == "1"
    assert "fujiki.fiber_integral_closed_form" in failures

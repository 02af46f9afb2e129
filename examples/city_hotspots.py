"""City hotspot analysis: spatial and spatio-temporal queries over taxis.

Answers an urban-planning style question with TMan: how much taxi traffic
crosses a set of candidate districts, and how does it change between the
morning and evening rush hours?  Exercises SRQ, STRQ, and the planner's
CBO (the same STRQ is answered through different indexes depending on
selectivity).

Run with:  python examples/city_hotspots.py
"""

from repro import MBR, STRangeQuery, TMan, TManConfig, TimeRange
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.geometry.distance import degrees_for_km

HOUR = 3600.0


def district(cx: float, cy: float, side_km: float) -> MBR:
    half = degrees_for_km(side_km, at_lat=cy) / 2
    return MBR(cx - half, cy - half, cx + half, cy + half)


def main() -> None:
    trajectories = tdrive_like(n=1500, seed=42)
    config = TManConfig(boundary=TDRIVE_SPEC.boundary, max_resolution=14)
    with TMan(config) as tman:
        tman.bulk_load(trajectories)
        print(f"Loaded {tman.row_count} taxi trips\n")

        cx, cy = TDRIVE_SPEC.center
        districts = {
            "downtown": district(cx, cy, 3.0),
            "north-quarter": district(cx, cy + 0.06, 3.0),
            "east-gate": district(cx + 0.08, cy, 3.0),
            "airport-road": district(cx + 0.15, cy + 0.10, 5.0),
        }

        # --- Raw through-traffic per district (SRQ) ----------------------
        print("Through-traffic per district (spatial range queries):")
        for name, window in districts.items():
            res = tman.spatial_range_query(window)
            print(f"  {name:14s} {len(res):5d} trips "
                  f"({res.candidates:5d} candidates, {res.windows} scans, "
                  f"{res.elapsed_ms:6.1f} ms)")

        # --- Rush-hour comparison (STRQ) ----------------------------------
        # Day 2 of the synthetic week; morning and evening peaks.
        morning = TimeRange(24 * HOUR + 7 * HOUR, 24 * HOUR + 10 * HOUR)
        evening = TimeRange(24 * HOUR + 17 * HOUR, 24 * HOUR + 20 * HOUR)
        print("\nRush-hour comparison for downtown (spatio-temporal queries):")
        for label, window_t in (("morning 07-10", morning), ("evening 17-20", evening)):
            res = tman.st_range_query(districts["downtown"], window_t)
            print(f"  {label}: {len(res):4d} trips (plan {res.plan})")

        # --- CBO in action -------------------------------------------------
        # A very short time range makes the temporal route cheaper than the
        # spatial one; the planner's reason string shows the decision.
        slim = TimeRange(24 * HOUR, 24 * HOUR + 300)
        plan = tman.planner.plan(STRangeQuery(districts["downtown"], slim))
        print(f"\nCBO decision for a 5-minute downtown STRQ: {plan.index} "
              f"({plan.reason})")

        # --- Hotspot ranking by unique vehicles ---------------------------
        print("\nDistrict ranking by unique vehicles (whole week):")
        ranking = []
        for name, window in districts.items():
            res = tman.spatial_range_query(window)
            ranking.append((len({t.oid for t in res.trajectories}), name))
        for vehicles, name in sorted(ranking, reverse=True):
            print(f"  {name:14s} {vehicles:4d} unique vehicles")

        # --- City-wide visit heatmap (trips per cell of a query result) ---
        whole_week = TimeRange(0.0, 7 * 24 * HOUR)
        res = tman.temporal_range_query(whole_week)
        core = district(cx, cy, 25.0)
        cols, rows = 24, 10
        h = [[0] * cols for _ in range(rows)]
        for traj in res.trajectories:
            cells = {
                (min(rows - 1, max(0, int((p.lat - core.y1) / core.height * rows))),
                 min(cols - 1, max(0, int((p.lng - core.x1) / core.width * cols))))
                for p in traj.points
            }
            for row, col in cells:
                h[row][col] += 1
        peak = max(map(max, h))
        print("\nDowntown visit heatmap (each char ~1km, darker = busier):")
        shades = " .:-=+*#%@"
        for row in reversed(range(rows)):
            line = "".join(
                shades[min(len(shades) - 1, int(h[row][col] / max(1, peak) * (len(shades) - 1)))]
                for col in range(cols)
            )
            print(f"  |{line}|")


if __name__ == "__main__":
    main()

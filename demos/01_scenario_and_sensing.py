"""Walk through the truth and sensing layers: build the stock
four-platform scenario, inspect the truth arrays, then generate one
seeded detection run and check its statistics against the sensor knobs.
"""

import collections
from pathlib import Path

import numpy as np

from spoofbench import (
    SensorConfig,
    build_scenario,
    default_scenario_config,
    generate_clean_run,
    write_detection_csv,
)

OUT = Path(__file__).resolve().parent / "out"


def main():
    cfg = default_scenario_config()
    truth = build_scenario(cfg)

    print(f"scenario: {len(truth.times_s)} steps at dt={truth.dt_s} s, "
          f"{len(truth.platform_ids)} platforms")
    for pid in truth.platform_ids:
        start = truth.positions[pid][0]
        end = truth.positions[pid][-1]
        speed = float(np.linalg.norm(truth.velocities[pid][0]))
        print(f"  platform {pid}: ({start[0]:7.1f},{start[1]:7.1f}) -> "
              f"({end[0]:7.1f},{end[1]:7.1f})  speed {speed:5.1f} m/s")

    sensor = SensorConfig()
    frames = generate_clean_run(truth, sensor, seed=0)

    counts = collections.Counter(d.label for f in frames for d in f.detections)
    n_true = counts["clean"]
    n_clutter = counts["clutter"]
    n_chances = len(frames) * len(truth.platform_ids)
    print(f"\nsensing at seed 0: {n_true + n_clutter} detections over {len(frames)} frames")
    print(f"  true returns  {n_true:4d}  (rate {n_true / n_chances:.3f} vs p_detect={sensor.p_detect})")
    print(f"  clutter       {n_clutter:4d}  (mean {n_clutter / len(frames):.2f}/frame vs rate={sensor.clutter_rate})")

    # same seed replays the identical stream; a different seed does not
    again = generate_clean_run(truth, sensor, seed=0)
    other = generate_clean_run(truth, sensor, seed=1)
    replay_ok = all(
        len(a.detections) == len(b.detections)
        and all(np.array_equal(x.z, y.z) for x, y in zip(a.detections, b.detections))
        for a, b in zip(frames, again)
    )
    print(f"\nseed 0 replay identical: {replay_ok}")
    print(f"seed 1 detection count:  {sum(len(f.detections) for f in other)}")

    OUT.mkdir(exist_ok=True)
    path = OUT / "clean_seed0.csv"
    write_detection_csv(path, frames, run_id="sense-s0")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

"""Apply each spoof type to the same clean detection run and show what
it does to the stream.

Drift nudges true returns along a fixed direction with an offset that
grows linearly inside the injection window. Ghost adds synthetic
detections that correspond to no platform. Mirror appends a reflected
copy of every true return across a vertical axis. In every case the
clean stream comes back untouched next to the spoofed one.
"""

import collections
import math

from spoofbench import (
    SensorConfig,
    SpoofConfig,
    SpoofType,
    apply_spoof,
    build_scenario,
    default_scenario_config,
    generate_clean_run,
)
from spoofbench.spoofing import reflect_across_axis

WINDOW = (20, 80)


def label_counts(frames):
    return collections.Counter(d.origin_key() for f in frames for d in f.detections)


def clean_untouched(run, clean_frames) -> bool:
    return list(run.clean_frames) == clean_frames


def main():
    truth = build_scenario(default_scenario_config())
    sensor = SensorConfig()
    clean = generate_clean_run(truth, sensor, seed=0)
    n_clean = sum(len(f.detections) for f in clean)
    print(f"clean run: {n_clean} detections, injection window {WINDOW}\n")

    # drift: same detections, same ids, positions pulled off-truth
    drift = apply_spoof(clean, SpoofConfig(
        spoof_type=SpoofType.DRIFT,
        injection_window=WINDOW,
        alpha=3.0,
        drift_dir=(1.0, 0.0),
    ))
    offsets = {}
    for t in (WINDOW[0], 50, WINDOW[1] - 1):
        pairs = zip(drift.clean_frames[t].detections, drift.spoofed_frames[t].detections)
        moved = [math.dist((s.x, s.y), (c.x, c.y)) for c, s in pairs if c.label == "clean"]
        offsets[t] = max(moved) if moved else 0.0
    print("drift (alpha=3.0 m/s along +x):")
    print(f"  detections {sum(len(f.detections) for f in drift.spoofed_frames)} (unchanged)")
    print("  offset by step: " + ", ".join(f"t={t}: {o:6.1f} m" for t, o in offsets.items()))
    print(f"  clean stream untouched: {clean_untouched(drift, clean)}")
    print(f"  log entries: {len(drift.spoof_log)} (one per moved detection)\n")

    # ghost: extra detections from nowhere, scattered over the sensor fov
    ghost = apply_spoof(clean, SpoofConfig(
        spoof_type=SpoofType.GHOST,
        injection_window=WINDOW,
        ghost_rate=4.0,
        ghost_mode="uniform",
        ghost_region=sensor.fov,
        ghost_sigma_m=sensor.noise_sigma_m,
        seed=7,
    ))
    counts = label_counts(ghost.spoofed_frames)
    n_ghost = counts["spoof:ghost"]
    span = WINDOW[1] - WINDOW[0]
    print("ghost (rate=4.0/frame, uniform over fov):")
    print(f"  injected {n_ghost} ghosts over {span} frames (mean {n_ghost / span:.2f}/frame)")
    print(f"  stream mix: {dict(counts)}")
    print(f"  clean stream untouched: {clean_untouched(ghost, clean)}\n")

    # mirror: reflected duplicates of true returns, new ids
    x0 = 0.0
    mirror = apply_spoof(clean, SpoofConfig(
        spoof_type=SpoofType.MIRROR,
        injection_window=WINDOW,
        mirror_x0=x0,
    ))
    n_mirror = label_counts(mirror.spoofed_frames)["spoof:mirror"]
    ids_clean = {d.detection_id for f in mirror.clean_frames for d in f.detections}
    ids_spoof = {d.detection_id for f in mirror.spoofed_frames for d in f.detections
                 if d.label.startswith("spoof")}
    first = mirror.spoofed_frames[WINDOW[0]].detections[0]
    sample = (first.x, first.y)
    twice = reflect_across_axis(reflect_across_axis(sample, x0), x0)
    print(f"mirror (axis x={x0}):")
    print(f"  appended {n_mirror} reflected copies, ids disjoint from clean: "
          f"{ids_clean.isdisjoint(ids_spoof)}")
    print(f"  reflecting twice returns the original exactly: {twice == sample}")
    print(f"  clean stream untouched: {clean_untouched(mirror, clean)}")


if __name__ == "__main__":
    main()

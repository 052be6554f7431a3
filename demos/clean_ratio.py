"""Sweep the cleaning ratio and watch corpus quality peak and fall.

With 30 % of annotations unmatched or idle, dropping too few leaves junk
labels in the corpus while dropping too many forfeits genuine ones; the
quality curve should peak near the true bad fraction.

Run: python3 demos/clean_ratio.py
"""

import tempfile

from morp.consensus import CorrectionParams
from morp.pipeline import sweep
from morp.synth import SynthSpec


def main():
    spec = SynthSpec(n_videos=40, num_frames=128, dim=16,
                     p_imprecise=0.2, p_unmatched=0.15, p_idle=0.15)
    ratios = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    print("sweeping cleaning ratio on a corpus with 30% bad annotations ...")
    with tempfile.TemporaryDirectory() as work:
        result = sweep(
            "clean_ratio", spec, ratios, seeds=[0, 1], work_dir=work,
            correction_params=CorrectionParams(epochs=6))
    print()
    print(result.to_text_table())
    best = max(zip(result.metric, result.values))
    print(f"\nbest ratio: {best[1]:g} (quality {best[0]:.4f})")


if __name__ == "__main__":
    main()

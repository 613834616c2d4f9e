"""Write perfbench/reference.json from the sources in src/: for each workload
the codeword and SNR of every (ratio, bits) point, and the number of channel
bits each corpus sentence takes under each source code. Run it only at a
commit whose records are known to be right, from the root of the checkout:

    python3 perfbench/make_reference.py
"""

import json
import sys
import tempfile
from pathlib import Path

import run
from checks import REFERENCE


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    from rislink import coding, harness

    with open(run.CORPUS) as f:
        sentences = [line.rstrip("\n") for line in f if line.strip()]
    code = coding.huffman_build(coding.huffman_frequencies(sentences))
    reference = {
        "commit": run.git_commit(),
        "bits_per_sentence": {
            "huffman": [int(coding.huffman_encode(s, code).size) for s in sentences],
            "sixbit": [int(coding.sixbit_encode(coding.sixbit_fold(s)).size) for s in sentences],
        },
        "points": {},
    }
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, spec in run.WORKLOADS.items():
            cfg = harness.ExperimentConfig(**run.workload_config(spec, 0, Path(tmp)))
            records = harness.run_sweep(
                cfg, quantize_before_select=spec["quantize_before_select"]
            )
            # every method at a point shares the point's codeword and SNR
            points = {(r.ratio, r.bits): [r.ratio, r.bits, r.codeword, r.snr_db] for r in records}
            reference["points"][name] = list(points.values())
            print(name, len(points), "points", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Correctness checks on sweep records.

The reference (perfbench/reference.json, written by make_reference.py at the
commit it names) holds, per workload, the selected codeword and SNR of every
(ratio, bits) point, and the number of channel bits each corpus sentence
takes under each source code. Codeword and SNR do not depend on the seed, so
one reference serves every seed. Checks on error rates use no stored values,
so they stay valid when the order of random draws changes.
"""

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
SNR_RTOL = 1e-12
BER_Z = 6.0  # half-width of the BER band, in binomial standard deviations


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def qpsk_ber(snr_db: float) -> float:
    """Q(sqrt(gamma)) for Gray QPSK at per-symbol SNR gamma."""
    gamma = 10.0 ** (snr_db / 10.0)
    return 0.5 * math.erfc(math.sqrt(gamma / 2.0))


def ber_band(snr_db: float, bits_per_sentence: list) -> tuple[float, float]:
    """(analytic BER, allowed deviation) for a record's BER, which is the mean
    over sentences of each sentence's bit error rate."""
    p = qpsk_ber(snr_db)
    n = len(bits_per_sentence)
    variance = p * (1.0 - p) * sum(1.0 / b for b in bits_per_sentence) / n**2
    return p, BER_Z * math.sqrt(variance)


def _problems(record, codeword, snr_db, rule, bits_per_sentence) -> list:
    found = []
    if record.codeword != codeword:
        found.append(f"codeword {record.codeword} != reference {codeword}")
    if not abs(record.snr_db - snr_db) <= SNR_RTOL * abs(snr_db):
        found.append(f"snr_db {record.snr_db!r} != reference {snr_db!r}")
    if rule == "error_free" and (record.ber, record.char_err, record.bleu) != (0.0, 0.0, 1.0):
        found.append(
            f"ber={record.ber} char_err={record.char_err} bleu={record.bleu}, expected 0, 0, 1"
        )
    if rule == "ber_band":
        p, width = ber_band(record.snr_db, bits_per_sentence)
        if record.ber is None or not abs(record.ber - p) <= width:
            found.append(f"ber {record.ber} outside {p:.5f} +- {width:.5f}")
    return found


def check_sweep(records, workload: str, methods: list, rule, reference: dict):
    """(records attempted, list of failure messages, one per failed record).
    A missing record counts as attempted and failed; an unexpected or
    duplicate one counts as one more attempted and failed."""
    expected = {
        (ratio, bits, method): (codeword, snr_db)
        for ratio, bits, codeword, snr_db in reference["points"][workload]
        for method in methods
    }
    bits = reference["bits_per_sentence"]
    attempted = len(expected)
    failures = []
    seen = set()
    for r in records:
        key = (r.ratio, r.bits, r.method)
        if key not in expected or key in seen:
            attempted += 1
            failures.append(f"{key}: unexpected or duplicate record")
            continue
        seen.add(key)
        found = _problems(r, *expected[key], rule, bits.get(r.method))
        if found:
            failures.append(f"{key}: " + "; ".join(found))
    failures += [f"{key}: missing" for key in expected.keys() - seen]
    return attempted, failures

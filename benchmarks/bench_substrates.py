"""Micro-benchmarks of the substrates (not figures from the paper).

These measure the throughput of the pieces every experiment leans on —
ECC encode/decode, the SRAM estimator, the codecs and one behavioural
task execution — so performance regressions in the substrates are visible
independently of the paper-level harnesses.
"""

from __future__ import annotations

from repro.apps.adpcm import AdpcmEncodeApp, AdpcmState, encode_block
from repro.apps.datagen import natural_image, speech_like_pcm
from repro.apps.jpeg import decode_image, encode_image
from repro.core.strategies import HybridStrategy
from repro.ecc import InterleavedSecDedCode, SecDedCode
from repro.memmodel import estimate_sram
from repro.runtime import run_task


def test_bench_secded_roundtrip(benchmark):
    code = SecDedCode(32)
    words = [(i * 2654435761) & 0xFFFFFFFF for i in range(256)]

    def roundtrip():
        return [code.decode(code.encode(word)).data for word in words]

    assert benchmark(roundtrip) == words


def test_bench_interleaved_cluster_correction(benchmark):
    code = InterleavedSecDedCode(32, ways=4)
    encoded = [(code.encode((i * 40503) & 0xFFFFFFFF), (i * 40503) & 0xFFFFFFFF, i % 49)
               for i in range(128)]

    def correct_all():
        ok = 0
        for codeword, data, start in encoded:
            corrupted = codeword ^ (0b111 << start)
            result = code.decode(corrupted)
            ok += result.data == data
        return ok

    assert benchmark(correct_all) == len(encoded)


def test_bench_sram_estimation(benchmark):
    def sweep():
        return [estimate_sram(words * 4, check_bits=8).area_mm2 for words in range(16, 529, 16)]

    areas = benchmark(sweep)
    assert len(areas) == 33


def test_bench_adpcm_encode_throughput(benchmark):
    pcm = speech_like_pcm(4000, seed=0)

    def encode():
        return len(encode_block(pcm, AdpcmState())[0])

    assert benchmark(encode) == 4000


def test_bench_jpeg_roundtrip(benchmark):
    image = natural_image(64, 64, seed=0)

    def roundtrip():
        return decode_image(encode_image(image, quality=75)).shape

    assert benchmark(roundtrip) == (64, 64)


def test_bench_behavioural_task_execution(benchmark):
    app = AdpcmEncodeApp(frame_samples=960)

    def run():
        return run_task(app, HybridStrategy(12, extra_buffer_words=app.state_words()), seed=0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.stats.fully_mitigated

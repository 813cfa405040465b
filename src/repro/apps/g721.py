"""G.721-style 32 kbit/s ADPCM encoder / decoder (MediaBench ``g721``).

G.721 (now part of G.726) codes 16-bit PCM at 4 bits per sample using an
*adaptive quantizer* and an *adaptive pole-zero predictor* (2 poles, 6
zeros) updated with sign-sign LMS.  This module implements a functional,
deterministic version of that structure: it is not bit-exact with the ITU
reference (which relies on specific fixed-point log-domain tables) but it
performs the same classes of computation per sample — predictor filtering,
quantization, inverse quantization, coefficient adaptation and scale
adaptation — and therefore exercises the mitigation scheme with the same
streaming structure, state footprint and compute intensity.

The predictor/quantizer state is what the paper calls the "status
registers / flow-control registers" that must be saved at every
checkpoint: it is an order of magnitude larger than the IMA ADPCM state,
which is why the optimizer selects larger chunks for G.721 (Table I).
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import StepResult, StreamingApplication, pack_samples_to_words
from .datagen import speech_like_pcm

#: Estimated ARM9 cycles per encoded / decoded sample.  The G.721 inner
#: loop (8-tap adaptive filter, quantizer search, coefficient updates) is
#: roughly 4x the work of the IMA ADPCM loop.
ENCODE_CYCLES_PER_SAMPLE = 225
DECODE_CYCLES_PER_SAMPLE = 205

#: Quantizer scale adaptation table, indexed by the 3-bit code magnitude.
#: Positive entries grow the step after large codes, negative entries
#: shrink it after small codes (same principle as the ITU W(I) multipliers).
_SCALE_ADAPT: tuple[float, ...] = (-0.98, -0.80, -0.40, 0.20, 0.90, 1.60, 2.40, 3.20)

_MIN_STEP = 4.0
_MAX_STEP = 8192.0
_LEAK = 0.9985       # coefficient leakage factor (keeps the predictor stable)
_POLE_MU = 0.006     # pole adaptation gain
_ZERO_MU = 0.004     # zero adaptation gain
_POLE1_LIMIT = 0.90
_POLE2_LIMIT = 0.75


@dataclass(frozen=True)
class G721State:
    """Adaptive predictor + quantizer state carried between samples.

    Attributes
    ----------
    step:
        Current quantizer step size.
    a1, a2:
        Second-order pole (autoregressive) coefficients.
    b:
        Six zero (moving-average) coefficients over past quantized
        differences.
    dq_history:
        Last six quantized differences (most recent first).
    sr_history:
        Last two reconstructed samples (most recent first).
    """

    step: float = 16.0
    a1: float = 0.0
    a2: float = 0.0
    b: tuple[float, ...] = (0.0,) * 6
    dq_history: tuple[float, ...] = (0.0,) * 6
    sr_history: tuple[float, ...] = (0.0, 0.0)


#: Number of 32-bit words needed to checkpoint a :class:`G721State`
#: (step, a1, a2, 6 zeros, 6 dq history, 2 sr history = 17 words).
STATE_WORDS = 17


def _sign(value: float) -> float:
    if value > 0:
        return 1.0
    if value < 0:
        return -1.0
    return 0.0


def _predict(state: G721State) -> tuple[float, float]:
    """Return (signal estimate, zero-section estimate) from the state."""
    sez = sum(coef * dq for coef, dq in zip(state.b, state.dq_history))
    se = state.a1 * state.sr_history[0] + state.a2 * state.sr_history[1] + sez
    return se, sez


def _quantize(diff: float, step: float) -> int:
    """Quantize a prediction difference to a 4-bit code (sign + 3 bits)."""
    code = 0
    magnitude = diff
    if diff < 0:
        code = 8
        magnitude = -diff
    level = int(magnitude / step)
    if level > 7:
        level = 7
    return code | level


def _inverse_quantize(code: int, step: float) -> float:
    """Reconstruct the quantized difference from a 4-bit code."""
    level = code & 0x7
    magnitude = (level + 0.5) * step
    return -magnitude if code & 0x8 else magnitude


def _adapt(state: G721State, code: int, dq: float, sr: float) -> G721State:
    """Update the quantizer scale and predictor coefficients."""
    # Scale adaptation: multiplicative update driven by the code magnitude.
    factor = 1.0 + 0.045 * _SCALE_ADAPT[code & 0x7]
    step = min(_MAX_STEP, max(_MIN_STEP, state.step * factor))

    # Zero-section adaptation (sign-sign LMS with leakage).
    sign_dq = _sign(dq)
    new_b = tuple(
        _LEAK * coef + _ZERO_MU * sign_dq * _sign(past_dq)
        for coef, past_dq in zip(state.b, state.dq_history)
    )

    # Pole-section adaptation on the partially reconstructed signal.
    p0 = dq + sum(coef * past_dq for coef, past_dq in zip(state.b, state.dq_history))
    p1 = state.dq_history[0] + sum(
        coef * past_dq for coef, past_dq in zip(state.b, state.dq_history[1:] + (0.0,))
    )
    sign_p0 = _sign(p0)
    a1 = _LEAK * state.a1 + _POLE_MU * sign_p0 * _sign(p1)
    a2 = _LEAK * state.a2 + _POLE_MU * 0.5 * sign_p0 * _sign(p0 if p1 == 0 else p1 * p0)
    # Stability clamps (as in the ITU recommendation).
    a2 = max(-_POLE2_LIMIT, min(_POLE2_LIMIT, a2))
    limit = _POLE1_LIMIT - abs(a2)
    a1 = max(-limit, min(limit, a1))

    return G721State(
        step=step,
        a1=a1,
        a2=a2,
        b=new_b,
        dq_history=(dq,) + state.dq_history[:-1],
        sr_history=(sr, state.sr_history[0]),
    )


def encode_sample(sample: int, state: G721State) -> tuple[int, G721State]:
    """Encode one 16-bit PCM sample into a 4-bit G.721-style code."""
    se, _ = _predict(state)
    diff = float(sample) - se
    code = _quantize(diff, state.step)
    dq = _inverse_quantize(code, state.step)
    sr = se + dq
    return code, _adapt(state, code, dq, sr)


def decode_sample(code: int, state: G721State) -> tuple[int, G721State]:
    """Decode one 4-bit code back into a 16-bit PCM sample."""
    if not 0 <= code <= 15:
        raise ValueError("G.721 codes are 4-bit values")
    se, _ = _predict(state)
    dq = _inverse_quantize(code, state.step)
    sr = se + dq
    new_state = _adapt(state, code, dq, sr)
    sample = int(round(max(-32768.0, min(32767.0, sr))))
    return sample, new_state


def encode_block(samples: list[int], state: G721State) -> tuple[list[int], G721State]:
    """Encode a block of PCM samples; returns codes and the final state."""
    codes = []
    for sample in samples:
        code, state = encode_sample(sample, state)
        codes.append(code)
    return codes, state


def decode_block(codes: list[int], state: G721State) -> tuple[list[int], G721State]:
    """Decode a block of codes; returns PCM samples and the final state."""
    samples = []
    for code in codes:
        sample, state = decode_sample(code, state)
        samples.append(sample)
    return samples, state


def pack_codes_to_words(codes: list[int]) -> list[int]:
    """Pack 4-bit codes into 32-bit words, 8 per word, LSB first."""
    words = []
    for offset in range(0, len(codes), 8):
        word = 0
        for lane, code in enumerate(codes[offset : offset + 8]):
            word |= (code & 0xF) << (4 * lane)
        words.append(word)
    return words


# ---------------------------------------------------------------------- #
# Streaming-application wrappers
# ---------------------------------------------------------------------- #
class G721EncodeApp(StreamingApplication):
    """MediaBench ``g721 encode``: PCM speech frames to 4-bit codes."""

    name = "g721-encode"

    def __init__(self, frame_samples: int = 1600, samples_per_step: int = 8) -> None:
        if frame_samples <= 0 or samples_per_step <= 0:
            raise ValueError("frame_samples and samples_per_step must be positive")
        if samples_per_step % 8:
            raise ValueError("samples_per_step must be a multiple of 8 (code packing)")
        if frame_samples % samples_per_step:
            raise ValueError("frame_samples must be a multiple of samples_per_step")
        self.frame_samples = frame_samples
        self.samples_per_step = samples_per_step

    def generate_input(self, seed: int = 0) -> list[int]:
        return speech_like_pcm(self.frame_samples, seed=seed)

    def num_steps(self, task_input: list[int]) -> int:
        return len(task_input) // self.samples_per_step

    def initial_state(self, task_input: list[int]) -> G721State:
        return G721State()

    def state_words(self) -> int:
        return STATE_WORDS

    def run_step(self, task_input: list[int], step_index: int, state: G721State) -> StepResult:
        start = step_index * self.samples_per_step
        samples = task_input[start : start + self.samples_per_step]
        codes, new_state = encode_block(samples, state)
        words = pack_codes_to_words(codes)
        n = len(samples)
        return StepResult(
            output_words=tuple(words),
            state=new_state,
            cycles=ENCODE_CYCLES_PER_SAMPLE * n,
            l1_reads=6 * n,   # predictor history + coefficient accesses
            l1_writes=3 * n,  # history shift + coefficient updates
        )


class G721DecodeApp(StreamingApplication):
    """MediaBench ``g721 decode``: 4-bit codes back to 16-bit PCM."""

    name = "g721-decode"

    def __init__(self, frame_samples: int = 1600, codes_per_step: int = 8) -> None:
        if frame_samples <= 0 or codes_per_step <= 0:
            raise ValueError("frame_samples and codes_per_step must be positive")
        if frame_samples % codes_per_step:
            raise ValueError("frame_samples must be a multiple of codes_per_step")
        self.frame_samples = frame_samples
        self.codes_per_step = codes_per_step
        self._encoder = G721EncodeApp(frame_samples=frame_samples)

    def generate_input(self, seed: int = 0) -> list[int]:
        """The decoder input is a real encoded stream produced by the encoder."""
        pcm = self._encoder.generate_input(seed)
        codes, _ = encode_block(pcm, G721State())
        return codes

    def num_steps(self, task_input: list[int]) -> int:
        return len(task_input) // self.codes_per_step

    def initial_state(self, task_input: list[int]) -> G721State:
        return G721State()

    def state_words(self) -> int:
        return STATE_WORDS

    def run_step(self, task_input: list[int], step_index: int, state: G721State) -> StepResult:
        start = step_index * self.codes_per_step
        codes = task_input[start : start + self.codes_per_step]
        samples, new_state = decode_block(codes, state)
        words = pack_samples_to_words(samples, bits=16)
        n = len(codes)
        return StepResult(
            output_words=tuple(words),
            state=new_state,
            cycles=DECODE_CYCLES_PER_SAMPLE * n,
            l1_reads=6 * n,
            l1_writes=3 * n,
        )

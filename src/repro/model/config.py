"""Model architecture registry (paper Table 3 models).

The paper evaluates five open models, abbreviated M, P, Y, L, F:
Mistral-v0.3 7B, Phi-3 14B, Yi 34B, Llama-3.1 70B and Falcon 180B.
The performance model only needs their architecture-derived quantities
— parameter bytes, KV bytes per token, flops per token — so the
registry records the published architecture hyper-parameters and
derives the rest.

A small synthetic spec factory (:func:`tiny_spec`) supports the
runnable numpy transformer used by the accuracy harness.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ModelSpec", "MODELS", "MODEL_LETTERS", "get_model", "tiny_spec"]

_FP16_BYTES = 2


@dataclass(frozen=True)
class ModelSpec:
    """Decoder-only transformer architecture description.

    ``n_params`` is the published parameter count (authoritative);
    :meth:`estimated_params` recomputes it from the architecture as a
    consistency check (they agree within ~10% for every registry entry).
    """

    name: str
    letter: str
    n_layers: int
    hidden_size: int
    n_heads: int
    n_kv_heads: int
    head_dim: int
    intermediate_size: int
    vocab_size: int
    max_context: int
    n_params: int
    #: SwiGLU-style gated MLP (3 matrices) vs plain GELU MLP (2 matrices,
    #: e.g. Falcon).
    gated_mlp: bool = True

    def __post_init__(self) -> None:
        if self.n_heads % self.n_kv_heads:
            raise ValueError(
                f"{self.name}: n_heads ({self.n_heads}) must be divisible "
                f"by n_kv_heads ({self.n_kv_heads})"
            )

    # -- derived sizes -------------------------------------------------------

    def kv_bytes_per_token(self, bytes_per_value: float = _FP16_BYTES) -> float:
        """Bytes of K+V cache one token adds across all layers."""
        return 2 * self.n_layers * self.n_kv_heads * self.head_dim * bytes_per_value

    def param_bytes(self, bytes_per_value: float = _FP16_BYTES) -> float:
        """Total parameter storage."""
        return self.n_params * bytes_per_value

    def estimated_params(self) -> int:
        """Parameter count from the architecture (consistency check)."""
        h = self.hidden_size
        attn = h * (self.n_heads * self.head_dim) + 2 * h * (
            self.n_kv_heads * self.head_dim
        ) + (self.n_heads * self.head_dim) * h
        mlp_matrices = 3 if self.gated_mlp else 2
        mlp = mlp_matrices * h * self.intermediate_size
        per_layer = attn + mlp + 2 * h  # + two norm vectors
        embed = self.vocab_size * h
        return self.n_layers * per_layer + 2 * embed


def _spec(**kwargs) -> ModelSpec:
    return ModelSpec(**kwargs)


#: The paper's five models with published architecture parameters.
MODELS: dict[str, ModelSpec] = {
    "mistral-7b": _spec(
        name="mistral-7b", letter="M", n_layers=32, hidden_size=4096,
        n_heads=32, n_kv_heads=8, head_dim=128, intermediate_size=14336,
        vocab_size=32768, max_context=32768, n_params=7_250_000_000,
    ),
    "phi-3-14b": _spec(
        name="phi-3-14b", letter="P", n_layers=40, hidden_size=5120,
        n_heads=40, n_kv_heads=10, head_dim=128, intermediate_size=17920,
        vocab_size=32064, max_context=131072, n_params=14_000_000_000,
    ),
    "yi-34b": _spec(
        name="yi-34b", letter="Y", n_layers=60, hidden_size=7168,
        n_heads=56, n_kv_heads=8, head_dim=128, intermediate_size=20480,
        vocab_size=64000, max_context=200000, n_params=34_400_000_000,
    ),
    "llama-3.1-70b": _spec(
        name="llama-3.1-70b", letter="L", n_layers=80, hidden_size=8192,
        n_heads=64, n_kv_heads=8, head_dim=128, intermediate_size=28672,
        vocab_size=128256, max_context=131072, n_params=70_600_000_000,
    ),
    "falcon-180b": _spec(
        name="falcon-180b", letter="F", n_layers=80, hidden_size=14848,
        n_heads=232, n_kv_heads=8, head_dim=64, intermediate_size=59392,
        vocab_size=65024, max_context=2048, n_params=180_000_000_000,
        gated_mlp=False,
    ),
}

#: Letter → spec, as the paper's figures label models M/P/Y/L/F.
MODEL_LETTERS: dict[str, ModelSpec] = {m.letter: m for m in MODELS.values()}


def get_model(name_or_letter: str) -> ModelSpec:
    """Look up a model by registry name ("llama-3.1-70b") or letter ("L")."""
    if name_or_letter in MODELS:
        return MODELS[name_or_letter]
    if name_or_letter in MODEL_LETTERS:
        return MODEL_LETTERS[name_or_letter]
    raise KeyError(
        f"unknown model {name_or_letter!r}; choose from "
        f"{sorted(MODELS)} or letters {sorted(MODEL_LETTERS)}"
    )


def tiny_spec(
    n_layers: int = 2,
    hidden_size: int = 64,
    n_heads: int = 4,
    n_kv_heads: int = 2,
    head_dim: int = 16,
    intermediate_size: int = 128,
    vocab_size: int = 256,
    max_context: int = 2048,
) -> ModelSpec:
    """A small spec for the runnable numpy transformer (tests/accuracy)."""
    spec = ModelSpec(
        name=f"tiny-{n_layers}l-{hidden_size}h", letter="T",
        n_layers=n_layers, hidden_size=hidden_size, n_heads=n_heads,
        n_kv_heads=n_kv_heads, head_dim=head_dim,
        intermediate_size=intermediate_size, vocab_size=vocab_size,
        max_context=max_context, n_params=0,
    )
    # Fill in the derived parameter count for the synthetic spec.
    object.__setattr__(spec, "n_params", spec.estimated_params())
    return spec

"""Parameter and Module base classes.

A :class:`Module` discovers its parameters and sub-modules through attribute
assignment (like a miniature torch.nn): setting ``self.weight = Parameter(w)``
registers a parameter; setting ``self.block = SomeModule()`` registers a
child.  Registration order is attribute-assignment order, which makes
:meth:`Module.flatten_grads` / :meth:`Module.set_flat_params` deterministic —
the property the distributed layer relies on so that all workers agree on the
gradient layout.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Module", "Parameter"]


class Parameter:
    """A trainable array with an accumulated gradient."""

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # forward / backward contract
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Given dL/d(output), accumulate parameter grads, return dL/d(input)."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ------------------------------------------------------------------
    # parameter traversal
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All parameters in deterministic registration order."""
        found: list[Parameter] = list(self._params.values())
        for child in self._children.values():
            found.extend(child.parameters())
        return found

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        found = [
            (f"{prefix}{name}", param) for name, param in self._params.items()
        ]
        for child_name, child in self._children.items():
            found.extend(child.named_parameters(prefix=f"{prefix}{child_name}."))
        return found

    def modules(self) -> list["Module"]:
        found: list[Module] = [self]
        for child in self._children.values():
            found.extend(child.modules())
        return found

    def num_parameters(self) -> int:
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------
    # train / eval mode
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", True)
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", False)
        return self

    # ------------------------------------------------------------------
    # flat views for the distributed layer
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def flatten_grads(self, out: np.ndarray | None = None) -> np.ndarray:
        """Concatenate all parameter gradients into one vector.

        ``out``, a float64 vector of :meth:`num_parameters` elements, is
        written in place and returned instead of a fresh array.
        """
        params = self.parameters()
        if not params:
            return np.zeros(0) if out is None else out
        return np.concatenate([param.grad.reshape(-1) for param in params], out=out)

    def flatten_params(self) -> np.ndarray:
        """Concatenate all parameter values into one vector."""
        params = self.parameters()
        if not params:
            return np.zeros(0)
        return np.concatenate([param.data.reshape(-1) for param in params])

    def set_flat_params(self, flat: np.ndarray) -> None:
        """Load parameter values from a flat vector (inverse of flatten)."""
        flat = np.asarray(flat, dtype=np.float64)
        expected = self.num_parameters()
        if flat.size != expected:
            raise ValueError(f"expected {expected} values, got {flat.size}")
        offset = 0
        for param in self.parameters():
            chunk = flat[offset : offset + param.size]
            param.data[...] = chunk.reshape(param.shape)
            offset += param.size

    def add_flat_update(self, delta: np.ndarray, scale: float = 1.0) -> None:
        """In-place ``params += scale * delta`` from a flat vector."""
        delta = np.asarray(delta, dtype=np.float64)
        expected = self.num_parameters()
        if delta.size != expected:
            raise ValueError(f"expected {expected} values, got {delta.size}")
        offset = 0
        for param in self.parameters():
            chunk = delta[offset : offset + param.size]
            param.data += scale * chunk.reshape(param.shape)
            offset += param.size

    # ------------------------------------------------------------------
    # state copy (model replication across simulated workers)
    # ------------------------------------------------------------------
    def copy_state_from(self, other: "Module") -> None:
        """Copy parameter values (not grads) from a same-architecture module."""
        mine, theirs = self.parameters(), other.parameters()
        if len(mine) != len(theirs):
            raise ValueError("architectures do not match")
        for dst, src in zip(mine, theirs):
            if dst.shape != src.shape:
                raise ValueError("parameter shapes do not match")
            dst.data[...] = src.data

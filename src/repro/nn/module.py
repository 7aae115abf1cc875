"""Module and Parameter abstractions, mirroring the familiar layer API.

A :class:`Module` owns :class:`Parameter` tensors and child modules; it exposes
recursive parameter iteration (for optimizers), a training/eval mode flag,
and a flat ``state_dict`` (for checkpointing).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor registered as a trainable model weight."""

    def __init__(self, data, dtype: np.dtype = np.float32) -> None:
        super().__init__(data, requires_grad=True, dtype=dtype)

    def __getstate__(self):
        # A copy (deepcopy, pickle) views no optimizer's buffer: no slot.
        return None, {name: getattr(self, name) for name in Tensor.__slots__}


class Module:
    """Base class for all neural network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes in ``__init__`` and implement :meth:`forward`.  Assignment
    order is preserved, which makes ``state_dict`` keys stable.
    """

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self._training: bool = True

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # forward dispatch
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError(f"{type(self).__name__} must implement forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # parameter traversal
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module and its children.

        Parameters reachable through several paths (e.g. an embedding table
        shared by two subnetworks) are returned once, so optimizers apply
        exactly one update per step.
        """
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs in registration order.

        Shared parameters are yielded once, under the first name they are
        reached by (depth-first registration order).
        """
        seen: set = set()
        yield from self._named_parameters(prefix, seen)

    def _named_parameters(self, prefix: str, seen: set) -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            if id(param) not in seen:
                seen.add(id(param))
                yield prefix + name, param
        for name, module in self._modules.items():
            yield from module._named_parameters(f"{prefix}{name}.", seen)

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar weights in the module tree."""
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------
    # train / eval mode — no layer reads the flag; the trainers and the
    # perf harness still set it, so it stays.
    # ------------------------------------------------------------------
    @property
    def training(self) -> bool:
        return self._training

    def train(self) -> "Module":
        """Put the module tree in training mode."""
        for module in self.modules():
            module._training = True
        return self

    def eval(self) -> "Module":
        """Put the module tree in evaluation mode."""
        for module in self.modules():
            module._training = False
        return self

    # ------------------------------------------------------------------
    # state dict
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of dotted parameter names to array copies."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters from :meth:`state_dict` output; strict matching.
        Copies into the existing arrays, so packed parameters keep viewing
        their optimizer's buffer."""
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={missing}, unexpected={unexpected}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"checkpoint {value.shape} vs model {param.data.shape}"
                )
            param.data[...] = value

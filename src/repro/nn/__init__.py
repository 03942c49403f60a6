"""``repro.nn`` — pure-numpy neural network substrate.

A compact deep-learning framework (tensors with reverse-mode autodiff,
layers, recurrent cells, losses, optimizers) sufficient to train every model
in the paper on CPU.  The Layout table in README.md maps the packages.
"""

from . import functional, gradcheck, infer, init, losses, optim
from .layers import MLP, Dropout, Embedding, Linear, ReLU, Sigmoid, Tanh
from .module import Module, ModuleList, Sequential
from .rnn import GRU, BiGRU, GRUCell
from .tensor import (Parameter, Tensor, as_tensor, concatenate, default_dtype,
                     get_default_dtype, is_grad_enabled, no_grad,
                     set_default_dtype, stack)

__all__ = [
    "Tensor",
    "Parameter",
    "as_tensor",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "Module",
    "ModuleList",
    "Sequential",
    "Linear",
    "Embedding",
    "Dropout",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "MLP",
    "GRUCell",
    "GRU",
    "BiGRU",
    "functional",
    "gradcheck",
    "infer",
    "init",
    "losses",
    "optim",
]

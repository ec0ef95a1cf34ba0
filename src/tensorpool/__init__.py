"""High-order tensor pooling with shrinkage normalization and RBF attention.

Core layers, each imported from its own submodule (the package re-exports
nothing, so importing one layer loads only what it uses):

* ``errors``: the typed errors, the finiteness screen, and the readers (``read_int``,
  ``read_ints``, ``read_items``, ``read_real``, ``read_array``) through which every
  entry point reads a caller's integers, containers, reals and finite arrays;
* ``tensor``: dense cubic tensors, capacity bounds, super-diagonals;
* ``descriptors``: outer-power descriptors of feature matrices;
* ``tso``: spectral and tensorial shrinkage with fast even/odd paths;
* ``shrinkage``: numerical verification of the shrinkage variational
  characterization and its identity target;
* ``attention`` / ``heads``: softmax and RBF attention, relation heads;
* ``pipeline``: synthetic few-shot episodes end to end;
* ``storage``: the TNSR tensor and TNSC container file formats;
* ``bench`` / ``suites`` / ``cli``: benchmark harness, invariant suites,
  and the command-line driver.
"""

__version__ = "0.1.0"

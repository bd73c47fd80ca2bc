"""The serving front: wire-level tests of `repro serve`."""

"""Reference implementations the suites compare the live code against.

Nothing under ``src/`` imports this package (``tests/test_layering.py``
enforces it); pytest collects nothing from it.
"""

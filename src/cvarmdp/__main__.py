"""`python -m cvarmdp`: the same command line as the `cvarmdp` script."""

from .cli import console_main

console_main()

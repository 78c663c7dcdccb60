"""The subcommand handlers, loaded one module at a time by `hkmod.cli.main` once it knows
the command, so a process compiles only its own handler.

Each handler takes the parsed arguments and returns the payload to print and the exit
code; `cli._run` prints the payload, through `cli._emit`. No module here imports `hkmod.cli`.
"""

"""``python -m cggen``: the ``cggen`` command."""

if __name__ == "__main__":
    from .cli import console_main

    console_main()

"""The repo's end-to-end benchmark: ``python -m bench`` (see README.md here)."""

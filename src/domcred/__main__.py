from domcred.cli import entrypoint

entrypoint()

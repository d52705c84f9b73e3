from whoosh_novo_ray.state.score_pool import ScorePool

__all__ = ["ScorePool"]

"""Privacy-preserving multi-party dual learning, desk scale.

Two data-holding parties train mutually inverse generative models over
their co-occurring samples and use them to complete one another's
missing features, while a collaborator trains a classifier split
across all three sites.  Feature-level Laplace noise bounds what the
exchanged values reveal, and cross-party gradient corrections travel
under additively homomorphic encryption.
"""

from .central import SplitCentralModel, central_forward_backward, \
    init_split_central, one_hot, party_backward, party_forward, to_monolithic
from .data import FeatureSplit, GammaSplit, PartyDataset, SplitSpec, \
    blinded_intersection, kfold_split, load_normalize, \
    min_max_normalize, partition_features, split_by_gamma
from .density import KdeModel, bandwidth_rule, fit_kde, \
    grad_log_density_batch, log_density_batch
from .dual import DualModelPair, DualPartyState, DualRoundTranscript, \
    dual_infer, dual_loss, run_dual_round
from .graph import complete_feature_matrix, confusion_protocol, link_auc, \
    link_prediction_auc, node_representations
from .nn import DenseLayer, Mlp, backprop_from_output_grad, \
    dual_hidden_width, init_mlp, loss_eval, mlp_forward, sgd_step
from .orchestrator import MpdlConfig, MpdlResult, PreparedExperiment, \
    RunReport, inference_mae, mpdl_train, predict_unlabeled, \
    prepare_experiment, split_predict, split_train, train_dual_generators
from .paillier import CipherVector, FixedPoint, KeyPair, PublicKey, \
    SecretKey, add_cipher, decode, decrypt_vector, encode, encrypt_vector, \
    keygen, mul_plain, negate_cipher
from .privacy import DpConfig, OneShotPerturber, PerturbedDataset, \
    effective_scale, laplace_sample, perturb_dataset, sensitivity
from .transport import Hub, MessageKind, ProtocolError, ProtocolMessage, \
    Transcript, transcript_assert

__version__ = "0.1.0"

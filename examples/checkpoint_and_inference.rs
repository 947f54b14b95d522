//! The deployment loop: train distributed, checkpoint the model, reload
//! it elsewhere, and serve full-graph predictions.
//!
//! Run with: `cargo run --release --example checkpoint_and_inference`

use neutronstar::gnn::inference::infer;
use neutronstar::prelude::*;
use neutronstar::tensor::checkpoint;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = DatasetSpec::named("pubmed")
        .expect("registered dataset")
        .materialize(0.1, 21);
    let model = GnnModel::two_layer(
        ModelKind::Gcn,
        dataset.feature_dim(),
        32,
        dataset.num_classes,
        5,
    );

    // 1. Train on a modeled 4-node cluster.
    let session = TrainingSession::builder()
        .engine(EngineKind::Hybrid)
        .cluster(ClusterSpec::aliyun_ecs(4))
        .learning_rate(0.02)
        .build(&dataset, &model)?;
    let report = session.train(25)?;
    println!(
        "trained: final loss {:.4}, test acc {:.1}%",
        report.final_loss(),
        report.final_test_acc() * 100.0
    );

    // 2. Checkpoint the trained parameters.
    let mut bytes = Vec::new();
    checkpoint::save(&report.final_params, None, &mut bytes)?;
    println!("checkpoint: {} bytes", bytes.len());

    // 3. "Elsewhere": a fresh process would rebuild the architecture and
    //    restore the weights by name.
    let mut restored = model.fresh_store();
    checkpoint::restore_into(&mut restored, &bytes)?;

    // 4. Serve: full-graph single-machine inference with the restored
    //    parameters must reproduce inference with the trained ones exactly.
    //    (The report's accuracy was measured in the last epoch's forward
    //    pass, before that epoch's optimizer step, so it is shown beside
    //    them, not compared.)
    let result = infer(&dataset, &model, &restored);
    let trained = infer(&dataset, &model, &report.final_params);
    println!(
        "restored inference: train {:.1}% / val {:.1}% / test {:.1}% \
         (last epoch, pre-step: test {:.1}%)",
        result.train_acc * 100.0,
        result.val_acc * 100.0,
        result.test_acc * 100.0,
        report.final_test_acc() * 100.0
    );
    assert_eq!(
        result.logits.data(),
        trained.logits.data(),
        "restored model must match the trained one exactly"
    );
    println!("round-trip exact: trained parameters == checkpoint == inference");
    Ok(())
}

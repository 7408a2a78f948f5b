//! The auto-generated web interface.
//!
//! "In addition to this, container automatically generates a complementary
//! web interface allowing users to access the service via a web browser"
//! (§3.1). This module renders plain HTML forms from service descriptions
//! and handles form submissions, mirroring that feature without JavaScript.

use mathcloud_core::ServiceDescription;
use mathcloud_http::{decode_query, PathParams, Request, Response, Router};
use mathcloud_json::value::Object;
use mathcloud_json::Value;

use crate::container::Everest;

/// Mounts the web UI under `/ui`.
pub fn mount(router: &mut Router, everest: Everest) {
    let e = everest.clone();
    router.get("/ui", move |_req, _p| Response::html(200, &index_page(&e)));

    let e = everest.clone();
    router.get("/ui/{name}", move |_req, p: &PathParams| {
        let name = p.get("name").expect("route has {name}");
        match e.description(name) {
            Some(d) => Response::html(200, &service_page(&d)),
            None => Response::html(404, &error_page(&format!("no such service: {name}"))),
        }
    });

    let e = everest.clone();
    router.post("/ui/{name}", move |req: &Request, p: &PathParams| {
        let name = p.get("name").expect("route has {name}");
        let Some(desc) = e.description(name) else {
            return Response::html(404, &error_page(&format!("no such service: {name}")));
        };
        let inputs = form_to_inputs(&desc, &req.body_string());
        match e.submit_full(name, &Value::Object(inputs), None, None, None) {
            Ok(o) => Response::empty(303)
                .with_header("Location", &format!("/ui/{name}/jobs/{}", o.rep.id)),
            Err(rej) => Response::html(rej.status(), &error_page(&rej.to_string())),
        }
    });

    let e = everest.clone();
    router.get("/ui/{name}/jobs/{id}", move |_req, p: &PathParams| {
        let name = p.get("name").expect("route has {name}");
        let id = p.get("id").expect("route has {id}");
        match e.representation(name, id) {
            Some(rep) => Response::html(200, &job_page(name, &rep.to_value())),
            None => Response::html(404, &error_page("no such job")),
        }
    });
}

/// Minimal HTML escaping for text nodes and attribute values.
pub fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn page(title: &str, body: &str) -> String {
    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>{}</title>\
         <style>body{{font-family:sans-serif;max-width:48rem;margin:2rem auto}}\
         label{{display:block;margin:0.5rem 0 0.1rem}}input{{width:100%}}\
         code{{background:#eee;padding:0 0.2rem}}</style></head><body>{}</body></html>",
        escape(title),
        body
    )
}

fn index_page(e: &Everest) -> String {
    let mut body = format!("<h1>{} — deployed services</h1><ul>", escape(e.name()));
    for d in e.list_services() {
        body.push_str(&format!(
            "<li><a href=\"/ui/{0}\">{0}</a> — {1}</li>",
            escape(d.name()),
            escape(d.description())
        ));
    }
    body.push_str("</ul>");
    page("MathCloud container", &body)
}

fn service_page(d: &ServiceDescription) -> String {
    let mut body = format!(
        "<h1>{}</h1><p>{}</p><form method=\"post\" action=\"/ui/{}\">",
        escape(d.name()),
        escape(d.description()),
        escape(d.name())
    );
    for p in d.inputs() {
        let hint = p
            .schema()
            .description
            .as_deref()
            .map(|t| format!(" <small>({})</small>", escape(t)))
            .unwrap_or_default();
        let required = if p.is_optional() { "" } else { " required" };
        body.push_str(&format!(
            "<label for=\"{0}\">{0}{1}</label><input id=\"{0}\" name=\"{0}\"{2}>",
            escape(p.name()),
            hint,
            required
        ));
    }
    body.push_str("<p><button type=\"submit\">Run</button></p></form>");
    body.push_str("<h2>Outputs</h2><ul>");
    for p in d.outputs() {
        body.push_str(&format!("<li><code>{}</code></li>", escape(p.name())));
    }
    body.push_str("</ul><p><a href=\"/ui\">&larr; all services</a></p>");
    page(d.name(), &body)
}

fn job_page(service: &str, rep: &Value) -> String {
    let state = rep["state"].as_str().unwrap_or("?");
    let mut body = format!(
        "<h1>Job {} — {}</h1>",
        escape(rep["id"].as_str().unwrap_or("?")),
        escape(state)
    );
    if let Some(outputs) = rep.get("outputs").and_then(Value::as_object) {
        body.push_str("<h2>Results</h2><dl>");
        for (k, v) in outputs.iter() {
            body.push_str(&format!(
                "<dt><code>{}</code></dt><dd><pre>{}</pre></dd>",
                escape(k),
                escape(&v.to_string())
            ));
        }
        body.push_str("</dl>");
    }
    if let Some(err) = rep.get("error").and_then(Value::as_str) {
        body.push_str(&format!("<p><strong>Error:</strong> {}</p>", escape(err)));
    }
    if !matches!(state, "DONE" | "FAILED" | "CANCELLED") {
        body.push_str("<p>Refresh to update the status.</p>");
    }
    body.push_str(&format!(
        "<p><a href=\"/ui/{}\">&larr; service</a></p>",
        escape(service)
    ));
    page("job status", &body)
}

fn error_page(message: &str) -> String {
    page(
        "error",
        &format!("<h1>Error</h1><p>{}</p>", escape(message)),
    )
}

/// Converts an HTML form body into a typed input object by coercing each
/// field according to the declared parameter schema.
fn form_to_inputs(desc: &ServiceDescription, body: &str) -> Object {
    let mut inputs = Object::new();
    for (key, raw) in decode_query(body) {
        let Some(param) = desc.input_named(&key) else {
            continue;
        };
        if raw.is_empty() && param.is_optional() {
            continue;
        }
        let coerced = coerce(&raw, param.schema());
        inputs.insert(key, coerced);
    }
    inputs
}

fn coerce(raw: &str, schema: &mathcloud_json::Schema) -> Value {
    use mathcloud_json::schema::TypeKind;
    let kinds = &schema.types;
    if kinds.contains(&TypeKind::Integer) {
        if let Ok(i) = raw.parse::<i64>() {
            return Value::from(i);
        }
    }
    if kinds.contains(&TypeKind::Number) {
        if let Ok(f) = raw.parse::<f64>() {
            return Value::from(f);
        }
    }
    if kinds.contains(&TypeKind::Boolean) {
        match raw {
            "true" | "on" | "1" => return Value::Bool(true),
            "false" | "off" | "0" => return Value::Bool(false),
            _ => {}
        }
    }
    if kinds.contains(&TypeKind::Array) || kinds.contains(&TypeKind::Object) {
        if let Ok(v) = mathcloud_json::parse(raw) {
            return v;
        }
    }
    Value::from(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::NativeAdapter;
    use mathcloud_core::Parameter;
    use mathcloud_http::{Client, Method};
    use mathcloud_json::{json, Schema};

    fn ui_server() -> (mathcloud_http::Server, String) {
        let e = Everest::new("ui-demo");
        e.deploy(
            ServiceDescription::new("double", "doubles a number")
                .input(Parameter::new("n", Schema::integer()).describe("the number"))
                .output(Parameter::new("result", Schema::integer())),
            NativeAdapter::from_fn(|inputs, _| {
                let n = inputs.get("n").and_then(Value::as_i64).unwrap_or(0);
                Ok([("result".to_string(), json!(n * 2))].into_iter().collect())
            }),
        );
        let server = crate::rest::serve(e, "127.0.0.1:0", None).unwrap();
        let base = server.base_url();
        (server, base)
    }

    #[test]
    fn index_and_service_pages_render() {
        let (_server, base) = ui_server();
        let client = Client::new();
        let index = client.get(&format!("{base}/ui")).unwrap();
        assert!(index.body_string().contains("double"));
        let svc = client.get(&format!("{base}/ui/double")).unwrap();
        let html = svc.body_string();
        assert!(html.contains("<form"));
        assert!(html.contains("name=\"n\""));
        assert!(html.contains("the number"));
        assert_eq!(
            client
                .get(&format!("{base}/ui/none"))
                .unwrap()
                .status
                .as_u16(),
            404
        );
    }

    #[test]
    fn form_submission_runs_a_job() {
        let (_server, base) = ui_server();
        let client = Client::new();
        let url: mathcloud_http::Url = format!("{base}/ui/double").parse().unwrap();
        let mut req = Request::new(Method::Post, "/ui/double");
        req.body = b"n=21".to_vec();
        req.headers
            .set("Content-Type", "application/x-www-form-urlencoded");
        let resp = client.send(&url, req).unwrap();
        assert_eq!(resp.status.as_u16(), 303);
        let location = resp.headers.get("location").unwrap().to_string();
        // Poll the job page until the result shows up.
        for _ in 0..100 {
            let page = client
                .get(&format!("{base}{location}"))
                .unwrap()
                .body_string();
            if page.contains("DONE") {
                assert!(page.contains("42"), "{page}");
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("job page never reached DONE");
    }

    #[test]
    fn escape_neutralizes_html() {
        assert_eq!(escape("<script>\"&\""), "&lt;script&gt;&quot;&amp;&quot;");
    }

    #[test]
    fn coercion_follows_schema_types() {
        assert_eq!(coerce("7", &Schema::integer()), json!(7));
        assert_eq!(coerce("2.5", &Schema::number()), json!(2.5));
        assert_eq!(coerce("on", &Schema::boolean()), json!(true));
        assert_eq!(
            coerce("[1,2]", &Schema::array_of(Schema::integer())),
            json!([1, 2])
        );
        assert_eq!(coerce("plain", &Schema::string()), json!("plain"));
        // Unparseable values fall back to strings so validation reports them.
        assert_eq!(coerce("xyz", &Schema::integer()), json!("xyz"));
    }
}
